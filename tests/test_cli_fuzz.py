"""Invalid ``scfi`` argv fails cleanly: exit 2 with one error line, no traceback.

A hypothesis fuzzer drives :func:`repro.cli.main.main` in-process with
invalid argv for every subcommand: unknown flags, unknown choices,
non-numeric values, zero or negative counts, missing positionals, and spec
files that are missing, not JSON or not a JSON object.  Every drawn argv
fails before any harden, campaign or server starts.  Each one argparse or
spec validation rejects must exit 2 and print exactly one ``scfi ...:``
line on stderr (argparse's usage lines aside); a malformed ``--server`` URL
keeps its exit 1, a client-side connection error.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli.main import main

ROOT = Path(__file__).resolve().parent.parent
VALID_SPEC = str(ROOT / "examples" / "experiment.json")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Spec files of every bad kind, plus a cache directory."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    (root / "not_json.json").write_text("{not json")
    (root / "not_object.json").write_text("[1, 2]")
    return {
        "missing": str(root / "missing.json"),
        "not_json": str(root / "not_json.json"),
        "not_object": str(root / "not_object.json"),
        "cache": str(root / "cache"),
    }


def run_cli(argv):
    """``(exit code, stderr)`` of one in-process ``scfi`` invocation."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, err.getvalue()


#: Words that never parse as a number (not even ``nan`` or ``inf``).
NOT_A_NUMBER = st.text(alphabet="xyz_-", min_size=1, max_size=6).map(lambda s: "x" + s)
#: Option names no subcommand defines or abbreviates.
UNKNOWN_FLAG = st.text(alphabet="abc-", min_size=1, max_size=6).map(lambda s: "--zz" + s)
BAD_CHOICE = st.text(alphabet="qwz_", min_size=1, max_size=8)
NON_POSITIVE = st.integers(max_value=0).map(str)
NEGATIVE = st.integers(max_value=-1).map(str)

#: Per subcommand: a valid prefix (with ``{name}`` file placeholders) and the
#: numeric options with the out-of-range values its validation rejects.
COMMANDS = {
    "run": (["run", VALID_SPEC], {"--workers": NON_POSITIVE}),
    "cache": (
        ["cache", "gc", "--cache-dir", "{cache}"],
        {"--max-age-days": st.one_of(NEGATIVE, st.sampled_from(["nan", "inf", "-inf"]))},
    ),
    "serve": (
        ["serve", "--cache-dir", "{cache}"],
        {
            "--fleet": NON_POSITIVE,
            "--port": st.one_of(NEGATIVE, st.integers(min_value=65536).map(str)),
            "--drain-timeout": st.one_of(NEGATIVE, st.sampled_from(["nan", "inf"])),
        },
    ),
    "harden": (
        ["harden", "--fsm", "traffic_light"],
        {"-N": NON_POSITIVE, "--error-bits": NEGATIVE},
    ),
    "fi": (
        ["fi"],
        {
            "-N": NON_POSITIVE,
            "--workers": NON_POSITIVE,
            "--lane-width": NON_POSITIVE,
            "--cycles": NON_POSITIVE,
            "--faults": NON_POSITIVE,
            "--trials": NEGATIVE,
            "--spot-trials": NEGATIVE,
        },
    ),
    "report": (["report", "figure8"], {"-N": NON_POSITIVE}),
    "result": (
        ["result", "job", "--wait"],
        {"--timeout": st.one_of(NON_POSITIVE, st.sampled_from(["nan", "inf"]))},
    ),
}

#: Choice-valued options and positionals, as (prefix, option) pairs.
CHOICES = [
    (["run", VALID_SPEC], "--engine"),
    (["cache"], None),
    (["report"], None),
    (["harden"], "--fsm"),
    (["fi"], "--fsm"),
    (["fi"], "--mode"),
    (["fi"], "--engine"),
    (["fi"], "--target"),
    (["fi"], "--effects"),
    (["fi"], "--fault-duration"),
    ([], None),
]

#: Numeric options that argparse parses, per subcommand prefix.
NUMERIC = [
    (["run", VALID_SPEC], "--workers"),
    (["cache", "gc"], "--max-age-days"),
    (["serve"], "--port"),
    (["serve"], "--fleet"),
    (["serve"], "--drain-timeout"),
    (["result", "job"], "--timeout"),
    (["harden", "--fsm", "traffic_light"], "-N"),
    (["harden", "--fsm", "traffic_light"], "--error-bits"),
    (["report", "figure8"], "-N"),
] + [
    (["fi"], option)
    for option in (
        "-N", "--workers", "--lane-width", "--faults", "--trials", "--seed",
        "--cycles", "--spot-radius", "--spot-trials",
    )
]

MISSING_POSITIONALS = [
    ["run"], ["cache"], ["submit"], ["status"], ["result"], ["harden"], ["report"], [],
    ["run", "--quiet"], ["result", "--wait"], ["harden", "-N", "2"],
]

SPEC_FILE_COMMANDS = [["run", "{spec}"], ["submit", "{spec}"], ["harden", "--verilog", "{spec}"]]

SUBCOMMANDS = ["run", "cache", "serve", "submit", "status", "result", "harden", "fi", "report"]


@st.composite
def rejected_argv(draw):
    """An argv that argparse or spec validation rejects (exit 2)."""
    kind = draw(st.sampled_from(["flag", "choice", "number", "count", "positional", "spec"]))
    if kind == "flag":
        command = draw(st.sampled_from(SUBCOMMANDS))
        prefix = COMMANDS.get(command, ([command, "arg"], {}))[0]
        return prefix + [draw(UNKNOWN_FLAG)]
    if kind == "choice":
        prefix, option = draw(st.sampled_from(CHOICES))
        return prefix + ([option] if option else []) + [draw(BAD_CHOICE)]
    if kind == "number":
        prefix, option = draw(st.sampled_from(NUMERIC))
        return prefix + [option, draw(NOT_A_NUMBER)]
    if kind == "count":
        prefix, options = COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))]
        option = draw(st.sampled_from(sorted(options)))
        return prefix + [option, draw(options[option])]
    if kind == "positional":
        return list(draw(st.sampled_from(MISSING_POSITIONALS)))
    command = draw(st.sampled_from(SPEC_FILE_COMMANDS))
    spec = "{" + draw(st.sampled_from(["missing", "not_json", "not_object"])) + "}"
    return [part.replace("{spec}", spec) for part in command]


@settings(max_examples=150, deadline=None)
@given(argv=rejected_argv())
@example(argv=["cache", "gc", "--cache-dir", "{cache}", "--max-age-days", "-1"])
@example(argv=["cache", "gc", "--cache-dir", "{cache}", "--max-age-days", "nan"])
@example(argv=["harden", "--fsm", "traffic_light", "-N", "0"])
@example(argv=["harden", "--verilog", "{missing}"])
@example(argv=["harden", "--verilog", "{not_json}"])
@example(argv=["report", "figure8", "-N", "0"])
@example(argv=["serve", "--cache-dir", "{cache}", "--port", "-1"])
@example(argv=["submit", "{not_object}"])
def test_rejected_argv_exits_2_with_one_error_line(files, argv):
    argv = [part.format(**files) for part in argv]
    code, err = run_cli(argv)
    assert "Traceback" not in err
    assert code == 2, (argv, err)
    errors = [line for line in err.splitlines() if line.startswith("scfi")]
    assert len(errors) == 1, (argv, err)


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from([["submit", VALID_SPEC], ["status", "job"], ["result", "job"]]),
    url=st.one_of(
        st.text(alphabet="abc:/.", min_size=1, max_size=12),
        st.sampled_from(["ftp://host", "http://", "http:///path", "::bad"]),
    ),
)
def test_malformed_server_url_exits_1_with_one_error_line(command, url):
    code, err = run_cli(command + ["--server", url])
    assert "Traceback" not in err
    assert code == 1, (command, url, err)
    assert len([line for line in err.splitlines() if line.startswith("scfi")]) == 1


@pytest.mark.parametrize("command", ["harden", "report"])
def test_delegated_usage_names_the_subcommand(command):
    assert run_cli([command])[1].startswith(f"usage: scfi {command} ")
