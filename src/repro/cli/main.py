"""``scfi``: the unified front door of the SCFI reproduction.

``scfi run experiment.json`` executes a serialized
:class:`~repro.api.spec.ExperimentSpec` through the declarative API and emits
the serializable :class:`~repro.api.session.ExperimentResult` as JSON --
campaign counters, hardening summary and provenance (spec hash, engine,
workers) included -- which is exactly what a distributed scheduler would do
with the same file.  ``--cache-dir`` (or the ``SCFI_CACHE_DIR`` environment
variable) points the run at a persistent content-addressed artifact store
(:mod:`repro.store`): each pipeline stage -- harden, campaign, report -- is
memoised under its input hash, so an unchanged spec replays stored
counters without compiling anything and a changed campaign reuses the cached
hardened netlist.  ``scfi cache {ls,gc,clear,export,import}`` inspects,
maintains and ships that store (``export``/``import`` move it as a gzipped
tarball whose entries re-verify their payload digests on the way in).

``scfi serve`` runs the campaign service (:mod:`repro.service`) -- durable
job queue, persistent worker fleet with warm compiled netlists, spec-hash
result tier -- over the same store, and ``scfi submit``/``status``/``result``
are the matching HTTP client commands.  The classic subcommands
(``harden``, ``fi``, ``report``) delegate verbatim to their modules under
:mod:`repro.cli`, which own their full flag surface.

The ``scfi`` console script and ``python -m repro.cli.main`` are the two
process entries.  Each keeps the garbage collector off while this module
imports the stack, then freezes what the imports made and turns the collector
back on.  The imports create some 23 000 tracked objects but leave only about
300 in garbage cycles, so the ~40 collections they would trigger find almost
nothing; frozen objects sit in the permanent generation, which later
collections skip.  The entry then runs :func:`console_main`, which runs
:func:`main` and freezes again: interpreter shutdown runs a full collection
over every object left, and frozen ones are skipped, so a cold ``scfi run``
exits without walking them.  Nothing else changes: atexit handlers,
standard-stream flushes and reference-count frees all still run.  Any other
import of this module (tests, the service, tracing harnesses) leaves the
collector as it found it, and :func:`main` itself never freezes, so callers
may run it in-process as often as they like.
"""

from __future__ import annotations

import gc
import os
import sys

#: Whether this import starts a ``scfi`` process: ``python -m repro.cli.main``
#: runs this file as ``__main__``, and the console script, named ``scfi``,
#: imports it first thing.
_PROCESS_ENTRY = __name__ == "__main__" or (
    bool(sys.argv) and os.path.splitext(os.path.basename(sys.argv[0]))[0] == "scfi"
)
if _PROCESS_ENTRY:
    gc.disable()

import argparse  # noqa: E402 - the collector is off for these imports
import json  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import Optional  # noqa: E402

from repro.api import ExperimentSpec, Session, available_engines  # noqa: E402
from repro.store import open_store  # noqa: E402

if _PROCESS_ENTRY:
    gc.freeze()
    gc.enable()


def _run_arguments(run: argparse.ArgumentParser) -> None:
    run.add_argument("spec", help="path to an ExperimentSpec JSON file")
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="override the spec's campaign worker count (counters are "
        "worker-count independent)",
    )
    run.add_argument(
        "--engine",
        default=None,
        choices=available_engines(),
        help="override the spec's evaluation engine (counters are "
        "engine independent)",
    )
    run.add_argument(
        "--out",
        default=None,
        help="write the result JSON here (atomically) instead of stdout",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed artifact store for incremental runs "
        "(defaults to $SCFI_CACHE_DIR; unset means no caching)",
    )
    run.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="additionally print the per-stage cache record (hit/miss and "
        "stage input hashes) after the run",
    )
    run.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the progress/summary lines on stderr",
    )


def _cache_arguments(cache: argparse.ArgumentParser) -> None:
    cache.add_argument(
        "action",
        choices=("ls", "gc", "clear", "export", "import"),
        help="ls: list stored artifacts; gc: drop corrupt/expired entries and "
        "leftover temp files; clear: remove every artifact; export: write the "
        "store to a gzipped tarball; import: merge a tarball into the store "
        "(entries re-verify their payload SHA-256; corrupt members are "
        "skipped with a warning)",
    )
    cache.add_argument(
        "path",
        nargs="?",
        default=None,
        help="export/import: the tarball path (required for those actions)",
    )
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="artifact store location (defaults to $SCFI_CACHE_DIR)",
    )
    cache.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="gc: additionally expire artifacts older than this many days "
        "(a finite number >= 0)",
    )


def _serve_arguments(serve: argparse.ArgumentParser) -> None:
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="artifact store backing jobs, stage caches and the result tier "
        "(defaults to $SCFI_CACHE_DIR; required)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8765, help="bind port (0 picks an ephemeral port)"
    )
    serve.add_argument(
        "--fleet", type=int, default=2, help="number of persistent fleet workers"
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds a SIGTERM waits for the in-flight job before marking it "
        "failed-but-resumable",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress service log lines on stderr"
    )


def _server_argument(client_cmd: argparse.ArgumentParser) -> None:
    client_cmd.add_argument(
        "--server",
        default=None,
        help="service base URL (defaults to $SCFI_SERVER or http://127.0.0.1:8765)",
    )


def _submit_arguments(submit: argparse.ArgumentParser) -> None:
    submit.add_argument("spec", help="path to an ExperimentSpec JSON file")
    _server_argument(submit)


def _status_arguments(status: argparse.ArgumentParser) -> None:
    status.add_argument("job_id", help="job id returned by scfi submit")
    _server_argument(status)


def _result_arguments(result: argparse.ArgumentParser) -> None:
    result.add_argument("job_id", help="job id returned by scfi submit")
    result.add_argument(
        "--wait",
        action="store_true",
        help="wait until the job finishes instead of failing while in flight",
    )
    result.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="--wait: give up after this many seconds (a finite number > 0)",
    )
    result.add_argument(
        "--out", default=None, help="write the result JSON here (atomically) instead of stdout"
    )
    _server_argument(result)


#: Every subcommand in ``--help`` order: its help line and the function that
#: adds its arguments (``None`` for the delegates, which parse their own).
_COMMANDS = {
    "run": ("execute a JSON experiment spec end to end", _run_arguments),
    "cache": ("inspect, maintain and ship the artifact cache", _cache_arguments),
    "serve": ("run the campaign service (job queue + worker fleet) over HTTP", _serve_arguments),
    "submit": ("submit an experiment spec to a running service", _submit_arguments),
    "status": ("query a submitted job's state and progress", _status_arguments),
    "result": ("fetch a finished job's result document", _result_arguments),
    "harden": ("protect an FSM (see scfi harden --help)", None),
    "fi": ("run a fault campaign (see scfi fi --help)", None),
    "report": ("regenerate paper artefacts (see scfi report --help)", None),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``scfi`` argument parser.

    With ``command`` naming a subcommand, only that subcommand's parser is
    built: its help, usage and error messages read exactly as on the full
    parser, which every other argv (``--help``, an unknown command) gets.
    """
    parser = argparse.ArgumentParser(
        prog="scfi", description="SCFI reproduction: harden FSMs and run fault campaigns"
    )
    if command in _COMMANDS:
        # The usage line lists every command, as the full parser's does.
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}"
        )
        commands = {command: _COMMANDS[command]}
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        commands = _COMMANDS
    for name, (help_text, add_arguments) in commands.items():
        if add_arguments is None:
            sub.add_parser(name, help=help_text, add_help=False)
        else:
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


#: Subcommands delegated verbatim to their dedicated CLI mains.  Dispatched
#: before argparse runs: REMAINDER cannot capture a leading option like
#: ``--fsm`` (bpo-17050), and the delegates own their full flag surface.
_DELEGATES = {
    "harden": "repro.cli.harden",
    "fi": "repro.cli.fault_campaign",
    "report": "repro.cli.report",
}


def _resolve_cache_dir(args) -> str:
    return args.cache_dir or os.environ.get("SCFI_CACHE_DIR") or ""


def _write_atomic(path: str, text: str) -> None:
    """Write via a same-directory temp file + ``os.replace`` so an interrupted
    run can never leave a truncated result JSON under the target name."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _emit(command: str, document: dict, out: Optional[str]) -> int:
    """Print ``document`` as JSON, or write it to ``out`` atomically.

    Returns 0, or the usage-error exit code 2 after one ``scfi <command>:``
    line when ``out`` cannot be written (a missing directory, a directory).
    """
    payload = json.dumps(document, indent=2)
    if not out:
        print(payload)
        return 0
    try:
        _write_atomic(out, payload + "\n")
    except OSError as error:
        reason = error.strerror or error
        print(f"scfi {command}: cannot write result to {out!r}: {reason}", file=sys.stderr)
        return 2
    return 0


def report_spec_error(command: str, error: Exception) -> int:
    """Print a spec that fails to resolve or lower as one ``scfi <command>:``
    line; returns the usage-error exit code 2."""
    # str() of a KeyError quotes its message; print the message itself.
    message = error.args[0] if isinstance(error, KeyError) and error.args else error
    print(f"scfi {command}: {message}", file=sys.stderr)
    return 2


def _run(args) -> int:
    try:
        spec = ExperimentSpec.load(args.spec)
    # TypeError covers wrong-typed field values (e.g. "workers": "4"), which
    # surface from the spec dataclasses' bounds checks.
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as error:
        print(f"scfi run: cannot load spec {args.spec!r}: {error}", file=sys.stderr)
        return 2

    cache_dir = _resolve_cache_dir(args)
    try:
        store = open_store(cache_dir) if cache_dir else None
    except OSError as error:
        print(f"scfi run: cannot open cache {cache_dir!r}: {error}", file=sys.stderr)
        return 2

    def progress(stage: str, detail) -> None:
        if not args.quiet:
            if stage == "batch":
                detail = "%d/%d" % detail
            print(f"[scfi] {stage}: {detail}", file=sys.stderr)

    try:
        result = Session(progress=progress, store=store).run(
            spec, workers=args.workers, engine=args.engine
        )
    except (ValueError, KeyError) as error:
        return report_spec_error("run", error)
    if not args.quiet:
        for campaign in result.campaigns.values():
            print(f"[scfi] {campaign.format()}", file=sys.stderr)
        if args.verbose and result.cache:
            for stage, record in result.cache.items():
                key = record.get("key")
                suffix = f" {key[:12]}" if key else ""
                print(f"[scfi] cache {stage}: {record['status']}{suffix}", file=sys.stderr)

    code = _emit("run", result.to_dict(), args.out)
    if code:
        return code
    if not result.compare_agrees:
        print(
            f"scfi run: engine cross-check diverged "
            f"({result.compare['engine']} vs {result.compare['oracle_engine']})",
            file=sys.stderr,
        )
        return 1
    return 0


def _cache(args) -> int:
    cache_dir = _resolve_cache_dir(args)
    if not cache_dir:
        print(
            "scfi cache: no cache directory (pass --cache-dir or set SCFI_CACHE_DIR)",
            file=sys.stderr,
        )
        return 2
    try:
        store = open_store(cache_dir)
    except OSError as error:
        print(f"scfi cache: cannot open cache {cache_dir!r}: {error}", file=sys.stderr)
        return 2

    if args.action == "ls":
        count = 0
        total = 0
        for artifact in store.entries():
            count += 1
            total += artifact.size
            when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(artifact.created))
            print(
                f"{artifact.stage:<9} {artifact.key}  "
                f"{artifact.codec:<6} {artifact.size:>12}  {when}"
            )
        print(f"[scfi] {count} artifact(s), {total} bytes in {cache_dir}", file=sys.stderr)
    elif args.action == "gc":
        try:
            stats = store.gc(max_age_days=args.max_age_days)
        except ValueError as error:
            print(f"scfi cache gc: {error}", file=sys.stderr)
            return 2
        print(
            "[scfi] gc: "
            + ", ".join(f"{name}={value}" for name, value in sorted(stats.items())),
            file=sys.stderr,
        )
    elif args.action in ("export", "import"):
        if not args.path:
            print(f"scfi cache {args.action}: a tarball path is required", file=sys.stderr)
            return 2
        from repro.store.transfer import export_store, import_store

        if args.action == "export":
            stats = export_store(store, args.path)
            print(
                f"[scfi] exported {stats['exported']} artifact(s) "
                f"({stats['bytes']} payload bytes) to {args.path}",
                file=sys.stderr,
            )
        else:
            try:
                stats = import_store(
                    store,
                    args.path,
                    warn=lambda msg: print(f"[scfi] warning: {msg}", file=sys.stderr),
                )
            except (OSError, ValueError) as error:
                print(f"scfi cache import: {error}", file=sys.stderr)
                return 2
            print(
                f"[scfi] imported {stats['imported']} artifact(s), "
                f"skipped {stats['skipped']} from {args.path}",
                file=sys.stderr,
            )
    else:
        removed = store.clear()
        print(f"[scfi] cleared {removed} artifact(s) from {cache_dir}", file=sys.stderr)
    return 0


def _serve(args) -> int:
    if args.fleet < 1:
        print("scfi serve: --fleet must be >= 1", file=sys.stderr)
        return 2
    if not 0 <= args.port <= 65535:
        print("scfi serve: --port must be in 0..65535", file=sys.stderr)
        return 2
    if not 0 <= args.drain_timeout < float("inf"):
        print("scfi serve: --drain-timeout must be a finite number >= 0", file=sys.stderr)
        return 2
    cache_dir = _resolve_cache_dir(args)
    if not cache_dir:
        print(
            "scfi serve: the service needs a durable store "
            "(pass --cache-dir or set SCFI_CACHE_DIR)",
            file=sys.stderr,
        )
        return 2
    try:
        store = open_store(cache_dir)
    except OSError as error:
        print(f"scfi serve: cannot open cache {cache_dir!r}: {error}", file=sys.stderr)
        return 2

    from repro.service import serve as run_service

    def log(event: str, detail: str) -> None:
        if not args.quiet:
            print(f"[scfi serve] {event}: {detail}", file=sys.stderr)

    def ready(server) -> None:
        # Printed on stdout (and flushed) so wrappers scripting an ephemeral
        # --port 0 can read the bound address.
        print(f"listening http://{args.host}:{server.server_address[1]}", flush=True)

    try:
        run_service(
            store,
            host=args.host,
            port=args.port,
            fleet_size=args.fleet,
            drain_timeout=args.drain_timeout,
            log=log,
            ready=ready,
        )
    except OSError as error:
        print(f"scfi serve: cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    return 0


def _client(args):
    from repro.service import ServiceClient

    base = args.server or os.environ.get("SCFI_SERVER") or "http://127.0.0.1:8765"
    return ServiceClient(base)


def _submit(args) -> int:
    from repro.service import ServiceError

    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec_data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"scfi submit: cannot load spec {args.spec!r}: {error}", file=sys.stderr)
        return 2
    if not isinstance(spec_data, dict):
        print(
            f"scfi submit: cannot load spec {args.spec!r}: an experiment spec must be "
            f"a JSON object, got {type(spec_data).__name__}",
            file=sys.stderr,
        )
        return 2
    try:
        reply = _client(args).submit(spec_data)
    except (ServiceError, OSError, ValueError) as error:
        print(f"scfi submit: {error}", file=sys.stderr)
        return 1
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0


def _status(args) -> int:
    from repro.service import ServiceError

    try:
        reply = _client(args).status(args.job_id)
    except (ServiceError, OSError, ValueError) as error:
        print(f"scfi status: {error}", file=sys.stderr)
        return 1
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0


def _result(args) -> int:
    from repro.service import ServiceError

    if not 0 < args.timeout < float("inf"):
        print("scfi result: --timeout must be a finite number > 0", file=sys.stderr)
        return 2
    try:
        client = _client(args)
        if args.wait:
            document = client.wait(args.job_id, timeout=args.timeout)
        else:
            document = client.result(args.job_id)
    except (ServiceError, OSError, ValueError) as error:
        print(f"scfi result: {error}", file=sys.stderr)
        return 1
    return _emit("result", document, args.out)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _DELEGATES:
        import importlib

        delegate = importlib.import_module(_DELEGATES[argv[0]])
        return delegate.main(argv[1:])
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    handlers = {
        "cache": _cache,
        "serve": _serve,
        "submit": _submit,
        "status": _status,
        "result": _result,
    }
    return handlers.get(args.command, _run)(args)


def console_main() -> int:
    """Process entry point: :func:`main`, then skip the exit-time collection.

    Only for a process that ends right after (see the module docstring).
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(console_main())
