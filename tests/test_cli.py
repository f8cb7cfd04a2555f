"""Tests for the command-line entry points."""

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli.fault_campaign import main as fi_main
from repro.cli.harden import main as harden_main
import repro.cli.main as cli_main
from repro.cli.main import build_parser
from repro.cli.main import main as scfi_main
from repro.cli.report import main as report_main
from repro.fsmlib import FSM_REGISTRY

REPO = Path(__file__).resolve().parent.parent
EXAMPLE_SPEC = REPO / "examples" / "experiment.json"


def _child_env():
    """This environment for a child interpreter: the source tree on its path
    and no ambient cache directory."""
    env = {k: v for k, v in os.environ.items() if k != "SCFI_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


class TestHardenCli:
    def test_registry_contains_benchmarks(self):
        assert "adc_ctrl_fsm" in FSM_REGISTRY
        assert "traffic_light" in FSM_REGISTRY

    def test_harden_benchmark(self, capsys):
        exit_code = harden_main(["--fsm", "traffic_light", "-N", "2", "--report"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Protected 'traffic_light'" in captured.out
        assert "diffusion blocks" in captured.out
        assert "Area report" in captured.out

    def test_harden_emits_verilog(self, capsys):
        exit_code = harden_main(["--fsm", "traffic_light", "--emit-verilog"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "module traffic_light_scfi2" in captured.out

    def test_harden_from_verilog_file(self, tmp_path, capsys, traffic_light):
        from repro.fsm.encoding import binary_encoding
        from repro.rtl.verilog_writer import emit_fsm

        source = tmp_path / "fsm.sv"
        source.write_text(emit_fsm(traffic_light, binary_encoding(traffic_light.states), 2))
        exit_code = harden_main(["--verilog", str(source), "-N", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "N=3" in captured.out

    def test_requires_a_source(self):
        with pytest.raises(SystemExit):
            harden_main([])


class TestReportCli:
    def test_table1_subset(self, capsys):
        exit_code = report_main(["table1", "--modules", "ibex_lsu"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "ibex_lsu" in captured.out
        assert "Geometric Mean" in captured.out

    def test_formal(self, capsys):
        exit_code = report_main(["formal"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "formal analysis" in captured.out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            report_main(["figure9"])


class TestFaultCampaignCli:
    def test_exhaustive_mode(self, capsys):
        exit_code = fi_main(["--fsm", "traffic_light", "--mode", "exhaustive"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "injections" in captured.out

    def test_bitflip_mode(self, capsys):
        exit_code = fi_main(["--fsm", "traffic_light", "--mode", "bitflip", "--trials", "50"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "50 injections" in captured.out

    def test_random_mode(self, capsys):
        exit_code = fi_main(
            ["--fsm", "traffic_light", "--mode", "random", "--trials", "30", "--faults", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "injections" in captured.out

    def test_regions_mode(self, capsys):
        exit_code = fi_main(["--fsm", "traffic_light", "--mode", "regions"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for region in ("FT1_state", "FT2_control", "FT3_phi_input", "FT3_diffusion"):
            assert region in captured.out

    def test_effects_mode(self, capsys):
        exit_code = fi_main(["--fsm", "traffic_light", "--mode", "effects"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for effect in ("flip", "stuck0", "stuck1"):
            assert effect in captured.out

    def test_effects_mode_honours_selection(self, capsys):
        exit_code = fi_main(
            ["--fsm", "traffic_light", "--mode", "effects", "--effects", "flip", "stuck0"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "flip" in captured.out
        assert "stuck0" in captured.out
        assert "stuck1" not in captured.out

    def test_rejects_zero_lane_width(self):
        with pytest.raises(SystemExit):
            fi_main(["--fsm", "traffic_light", "--lane-width", "0"])

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trials", "-1"], "trials must be >= 0"),
            (["-N", "0"], "protection_level must be >= 1"),
            (["--faults", "0"], "faults must be >= 1"),
            (["--mode", "laser", "--spot-radius", "0"], "spot_radius must be a number > 0"),
            (["--mode", "laser", "--spot-trials", "-5"], "spot_trials must be an integer >= 0"),
            # A flag its mode does not take, named by its spec field.
            (["--cycles", "3"], "the 'exhaustive' scenario does not take 'cycles'"),
            (
                ["--mode", "random", "--fault-duration", "persistent"],
                "the 'random' scenario does not take 'fault_duration'",
            ),
            (
                ["--mode", "temporal", "--spot-radius", "2"],
                "the 'temporal' scenario does not take 'spot_radius'",
            ),
            (
                ["--mode", "effects", "--spot-trials", "5"],
                "the 'effects' scenario does not take 'spot_trials'",
            ),
            (
                ["--mode", "regions", "--target", "comb"],
                "the 'regions' scenario does not take 'target'",
            ),
            (["--mode", "glitch"], "the 'glitch' scenario needs a glitch_schedule"),
        ],
    )
    def test_invalid_spec_flags_are_usage_errors(self, capsys, flags, message):
        with pytest.raises(SystemExit) as excinfo:
            fi_main(["--fsm", "traffic_light", *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_unlowerable_fault_count_fails_cleanly(self, capsys):
        exit_code = fi_main(
            ["--fsm", "traffic_light", "--mode", "random", "--faults", "500"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.strip().splitlines() == [
            "scfi fi: num_faults=500 exceeds the 104 available target nets; "
            "a truncated draw would silently weaken the campaign"
        ]

    def test_rejects_target_in_regions_mode(self):
        with pytest.raises(SystemExit):
            fi_main(["--fsm", "traffic_light", "--mode", "regions", "--target", "comb"])

    def test_random_mode_honours_effects(self, capsys):
        exit_code = fi_main(
            [
                "--fsm",
                "traffic_light",
                "--mode",
                "random",
                "--trials",
                "25",
                "--effects",
                "stuck1",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "injections" in captured.out

    def test_compare_engines(self, capsys):
        exit_code = fi_main(["--fsm", "traffic_light", "--mode", "exhaustive", "--compare"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "engines agree" in captured.out

    def test_bignum_parallel_engine(self, capsys):
        exit_code = fi_main(
            ["--fsm", "traffic_light", "--mode", "regions", "--engine", "parallel"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "FT1_state" in captured.out

    def test_default_engine_compare_uses_scalar_oracle(self, capsys):
        exit_code = fi_main(
            [
                "--fsm",
                "traffic_light",
                "--mode",
                "exhaustive",
                "--compare",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "engines agree (parallel-numpy vs scalar)" in captured.out

    def test_engine_choice_listed_in_help(self, capsys):
        with pytest.raises(SystemExit):
            fi_main(["--help"])
        out = capsys.readouterr().out
        assert "parallel-numpy" in out
        assert "parallel-compiled" not in out

    def test_scalar_engine_and_comb_target(self, capsys):
        exit_code = fi_main(
            ["--fsm", "traffic_light", "--mode", "exhaustive", "--engine", "scalar", "--target", "comb"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "injections" in captured.out

    def test_compare_divergence_exits_non_zero(self, capsys, monkeypatch):
        """An engine cross-check mismatch must fail the invocation, not just
        print it."""
        from repro.api.session import Session

        def fake_cross_check(self, structure, campaign, results):
            return {
                "engine": campaign.engine,
                "oracle_engine": "scalar",
                "agree": False,
                "scenarios": {
                    "exhaustive": {
                        "agree": False,
                        "engine_counters": [0, 84, 0, 0],
                        "oracle_counters": [1, 83, 0, 0],
                    }
                },
            }

        monkeypatch.setattr(Session, "_cross_check", fake_cross_check)
        exit_code = fi_main(["--fsm", "traffic_light", "--mode", "exhaustive", "--compare"])
        captured = capsys.readouterr()
        assert exit_code != 0
        assert "ENGINE MISMATCH" in captured.err
        assert "engines agree" not in captured.out


class TestScfiRunCli:
    def test_run_example_spec_emits_result_json(self, capsys):
        exit_code = scfi_main(["run", str(EXAMPLE_SPEC), "--quiet"])
        captured = capsys.readouterr()
        assert exit_code == 0
        result = json.loads(captured.out)
        assert result["spec"]["fsm"]["name"] == "traffic_light"
        assert result["campaigns"]["flip"]["hijacked"] == 0
        assert result["provenance"]["engine"] == "parallel"

    def test_run_writes_out_file_and_reports_progress(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        exit_code = scfi_main(["run", str(EXAMPLE_SPEC), "--out", str(out)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "[scfi] harden" in captured.err
        result = json.loads(out.read_text())
        assert result["campaigns"]["flip"]["total_injections"] > 0

    def test_run_workers_override_recorded_in_provenance(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        exit_code = scfi_main(
            ["run", str(EXAMPLE_SPEC), "--quiet", "--workers", "1", "--out", str(out)]
        )
        assert exit_code == 0
        assert json.loads(out.read_text())["provenance"]["workers"] == 1

    def test_run_missing_spec_fails_cleanly(self, capsys):
        exit_code = scfi_main(["run", "/does/not/exist.json", "--quiet"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cannot load spec" in captured.err

    def test_run_rejects_wrong_typed_spec_values(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"fsm": {"name": "traffic_light"}, "campaign": {"workers": "4"}})
        )
        exit_code = scfi_main(["run", str(bad), "--quiet"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cannot load spec" in captured.err

    @pytest.mark.parametrize("engine", ["bogus-engine", "parallel-compiled"])
    def test_run_rejects_unknown_engine_before_hardening(self, tmp_path, capsys, engine):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"fsm": {"name": "traffic_light"}, "campaign": {"engine": engine}})
        )
        exit_code = scfi_main(["run", str(bad)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1  # one clean line: no progress, no traceback
        assert f"unknown engine {engine!r}" in lines[0]
        assert "parallel, parallel-numpy, scalar" in lines[0]

    @pytest.mark.parametrize(
        "campaign, flags, message",
        [
            ({"scenario": "meltdown"}, [], "unknown scenario 'meltdown'"),
            ({"scenario": "exhaustive", "cycles": 3}, [], "does not take 'cycles'"),
            (
                {"scenario": "exhaustive", "fault_duration": "persistent"},
                [],
                "does not take 'fault_duration'",
            ),
            ({}, ["--workers", "0"], "workers must be >= 1"),
        ],
    )
    def test_run_rejects_bad_campaign_before_hardening(
        self, tmp_path, capsys, campaign, flags, message
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"fsm": {"name": "ibex_lsu"}, "campaign": campaign}))
        exit_code = scfi_main(["run", str(bad), *flags])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1  # one clean line: no progress, no traceback
        assert message in lines[0]
        assert "[scfi] harden:" not in captured.err

    @pytest.mark.parametrize(
        "fsm, campaign, message",
        [
            ("no_such_fsm", {}, "scfi run: unknown FSM 'no_such_fsm'"),
            (
                "traffic_light",
                {"scenario": "random", "faults": 500},
                "scfi run: num_faults=500 exceeds the 104 available target nets",
            ),
        ],
    )
    def test_run_unresolvable_spec_fails_cleanly(self, tmp_path, capsys, fsm, campaign, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"fsm": {"name": fsm}, "campaign": campaign}))
        exit_code = scfi_main(["run", str(bad), "--quiet"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1  # one clean line, no traceback
        assert lines[0].startswith(message)

    def test_run_rejects_bad_spec_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"fsm": {"name": "traffic_light"}, "campain": {}}))
        exit_code = scfi_main(["run", str(bad), "--quiet"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "campain" in captured.err

    def test_delegating_subcommands(self, capsys):
        exit_code = scfi_main(["harden", "--fsm", "traffic_light"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Protected 'traffic_light'" in captured.out
        exit_code = scfi_main(["fi", "--fsm", "traffic_light", "--mode", "exhaustive"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "injections" in captured.out

class TestScfiCacheCli:
    """The ``--cache-dir`` plumbing of ``scfi run`` and the ``scfi cache``
    maintenance subcommand."""

    def test_cold_then_warm_run_replays_from_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert scfi_main(["run", str(EXAMPLE_SPEC), "--cache-dir", str(cache), "-v"]) == 0
        cold = capsys.readouterr()
        assert "cache hit" not in cold.err
        assert "[scfi] cache harden: miss" in cold.err

        assert scfi_main(["run", str(EXAMPLE_SPEC), "--cache-dir", str(cache), "-v"]) == 0
        warm = capsys.readouterr()
        assert "[scfi] cache harden: hit" in warm.err
        assert "[scfi] cache campaign: hit" in warm.err
        assert "cache plan" not in warm.err  # the plan stage is gone
        assert "[scfi] cache report: hit" in warm.err
        # Cache-hit progress is also surfaced through the normal progress feed.
        assert "[scfi] report: cache hit" in warm.err

        cold_doc = json.loads(cold.out)
        warm_doc = json.loads(warm.out)
        assert warm_doc["campaigns"] == cold_doc["campaigns"]
        assert warm_doc["spec_hash"] == cold_doc["spec_hash"]

    def test_cache_dir_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCFI_CACHE_DIR", str(tmp_path / "envcache"))
        assert scfi_main(["run", str(EXAMPLE_SPEC), "--quiet"]) == 0
        capsys.readouterr()
        assert scfi_main(["cache", "ls"]) == 0
        listed = capsys.readouterr()
        stages = {line.split()[0] for line in listed.out.splitlines()}
        assert stages == {"harden", "campaign", "report"}

    def test_out_is_written_atomically(self, tmp_path, capsys):
        out = tmp_path / "nested" / "result.json"
        out.parent.mkdir()
        exit_code = scfi_main(["run", str(EXAMPLE_SPEC), "--quiet", "--out", str(out)])
        capsys.readouterr()
        assert exit_code == 0
        assert json.loads(out.read_text())["campaigns"]["flip"]["total_injections"] > 0
        assert list(out.parent.glob("*.tmp")) == []

    def test_cache_ls_gc_clear_round_trip(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert scfi_main(["run", str(EXAMPLE_SPEC), "--quiet", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()

        assert scfi_main(["cache", "ls", "--cache-dir", str(cache)]) == 0
        listed = capsys.readouterr()
        assert len(listed.out.splitlines()) == 3
        assert "3 artifact(s)" in listed.err

        assert scfi_main(["cache", "gc", "--cache-dir", str(cache)]) == 0
        swept = capsys.readouterr()
        assert "kept=3" in swept.err
        assert "removed_corrupt=0" in swept.err

        assert scfi_main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        cleared = capsys.readouterr()
        assert "cleared 3 artifact(s)" in cleared.err
        assert scfi_main(["cache", "ls", "--cache-dir", str(cache)]) == 0
        assert "0 artifact(s)" in capsys.readouterr().err

    @pytest.mark.parametrize("age", ["-1", "nan", "inf"])
    def test_cache_gc_rejects_a_negative_or_non_finite_age(self, tmp_path, capsys, age):
        cache = tmp_path / "cache"
        assert scfi_main(["run", str(EXAMPLE_SPEC), "--quiet", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert scfi_main(["cache", "gc", "--cache-dir", str(cache), "--max-age-days", age]) == 2
        assert "max_age_days must be a finite number >= 0" in capsys.readouterr().err
        assert scfi_main(["cache", "ls", "--cache-dir", str(cache)]) == 0
        assert "3 artifact(s)" in capsys.readouterr().err

    def test_cache_without_directory_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.delenv("SCFI_CACHE_DIR", raising=False)
        exit_code = scfi_main(["cache", "ls"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "no cache directory" in captured.err


@pytest.fixture(params=["missing-directory", "directory"])
def unwritable_out(request, tmp_path):
    """An ``--out`` path that cannot be written: its directory is missing, or
    it names a directory."""
    if request.param == "directory":
        target = tmp_path / "taken"
        target.mkdir()
        return target
    return tmp_path / "absent" / "result.json"


class TestUnwritableOut:
    """``--out`` that cannot be written ends a finished run with one
    ``scfi <command>: cannot write result to ...`` line and exit code 2,
    and leaves no temp file behind."""

    @staticmethod
    def _assert_one_error_line(captured, command: str, out: Path, tmp_path: Path) -> None:
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"scfi {command}: cannot write result to {str(out)!r}: ")
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_run(self, capsys, tmp_path, unwritable_out):
        rc = scfi_main(["run", str(EXAMPLE_SPEC), "--quiet", "--out", str(unwritable_out)])
        assert rc == 2
        self._assert_one_error_line(capsys.readouterr(), "run", unwritable_out, tmp_path)

    def test_result(self, capsys, monkeypatch, tmp_path, unwritable_out):
        class Client:
            def result(self, job_id):
                return {"job_id": job_id, "campaigns": {}}

        monkeypatch.setattr(cli_main, "_client", lambda args: Client())
        rc = scfi_main(["result", "0" * 72, "--out", str(unwritable_out)])
        assert rc == 2
        self._assert_one_error_line(capsys.readouterr(), "result", unwritable_out, tmp_path)


def _parse(parser: argparse.ArgumentParser, argv):
    """Exit code, stdout and stderr of ``parser.parse_args(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def _commands(parser: argparse.ArgumentParser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


#: Subcommands that ``scfi`` itself parses (the rest are delegated).
PARSED_COMMANDS = ("run", "cache", "serve", "submit", "status", "result")
#: The parsed subcommands that take positionals, with those filled.
FILLED_COMMANDS = (
    ["run", "spec.json"], ["cache", "ls"], ["submit", "spec.json"], ["status", "job"],
    ["result", "job"],
)


class TestParser:
    """:func:`build_parser` builds only the subcommand ``argv[0]`` names, and
    that parser reads exactly as the full one."""

    def test_a_command_builds_only_its_own_parser(self):
        everything = _commands(build_parser())
        assert everything == list(PARSED_COMMANDS) + ["harden", "fi", "report"]
        for command in PARSED_COMMANDS:
            assert _commands(build_parser(command)) == [command]
        for argv0 in (None, "--help", "bogus"):
            assert _commands(build_parser(argv0)) == everything

    @pytest.mark.parametrize(
        "argv",
        [["--help"]]
        + [[command, "--help"] for command in PARSED_COMMANDS]
        + [[command, "--bogus"] for command in PARSED_COMMANDS]
        + [filled + ["--bogus"] for filled in FILLED_COMMANDS]
        + [["run", "spec.json", "--engine", "nope"], ["serve", "--port", "x"],
           ["cache", "nope"], ["result", "job", "--timeout", "soon"]],
        ids=" ".join,
    )
    def test_one_command_parser_reads_as_the_full_parser(self, argv):
        reply = _parse(build_parser(argv[0]), argv)
        assert reply == _parse(build_parser(), argv)
        code, out, err = reply
        assert code == (0 if "--help" in argv else 2)
        assert (out if code == 0 else err).startswith("usage: scfi ")


class TestServiceCli:
    """Argument validation of the service subcommands (the end-to-end serve
    path is pinned in tests/test_service_shutdown.py)."""

    def test_serve_requires_a_cache_dir(self, capsys, monkeypatch):
        monkeypatch.delenv("SCFI_CACHE_DIR", raising=False)
        assert scfi_main(["serve"]) == 2
        assert "durable store" in capsys.readouterr().err

    def test_serve_rejects_zero_fleet(self, capsys, tmp_path):
        rc = scfi_main(["serve", "--cache-dir", str(tmp_path / "c"), "--fleet", "0"])
        assert rc == 2
        assert "--fleet must be >= 1" in capsys.readouterr().err

    def test_submit_unreachable_server_fails_cleanly(self, capsys):
        rc = scfi_main(
            ["submit", str(EXAMPLE_SPEC), "--server", "http://127.0.0.1:1"]
        )
        assert rc == 1
        assert "scfi submit:" in capsys.readouterr().err

    def test_status_unreachable_server_fails_cleanly(self, capsys):
        rc = scfi_main(["status", "0" * 72, "--server", "http://127.0.0.1:1"])
        assert rc == 1
        assert "scfi status:" in capsys.readouterr().err

    def test_result_unreachable_server_fails_cleanly(self, capsys):
        rc = scfi_main(["result", "0" * 72, "--server", "http://127.0.0.1:1"])
        assert rc == 1
        assert "scfi result:" in capsys.readouterr().err

    def test_submit_missing_spec_file(self, capsys, tmp_path):
        rc = scfi_main(["submit", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "cannot load spec" in capsys.readouterr().err


#: repro modules that a workers=1 effect sweep never calls into: the fleet
#: (sharded runs), sampled draws, laser placement, the bitflip scenario, the
#: redundancy baseline, the FSM simulator and the synthesis/timing flow.
DEFERRED_MODULES = {
    "repro.fi.fleet",
    "repro.fi.draws",
    "repro.fi.placement",
    "repro.fi.behavioral",
    "repro.core.redundancy",
    "repro.fsm.simulate",
    "repro.netlist.timing",
    "repro.netlist.generic",
    "repro.synth.lower",
    "repro.synth.flow",
    "repro.synth.sizing",
}
#: Ceiling on the repro modules that ``import repro.cli.main`` loads (56 while
#: the package ``__init__``s re-exported their submodules).  The benchmark's
#: ``cli.modules_loaded`` also counts the standard library and numpy, whose
#: share depends on the interpreter, the numpy version and site-packages.
COLD_IMPORT_REPRO_MODULES = 47


#: Ceiling on the dataclasses ``import repro.cli.main`` defines in ``repro.*``
#: (39 while the cold path's immutable records and private holders were
#: dataclasses too; CPython compiles every generated dataclass method at
#: import).  The rest need ``fields``, ``asdict``, ``replace`` or
#: ``__post_init__``.
COLD_IMPORT_DATACLASSES = 19

_COUNT_DATACLASSES = """
import dataclasses, json, sys
import repro.cli.main
print(json.dumps(sorted({
    f"{value.__module__}.{value.__qualname__}"
    for name, module in list(sys.modules.items())
    if name == "repro" or name.startswith("repro.")
    for value in vars(module).values()
    if isinstance(value, type) and dataclasses.is_dataclass(value)
    and value.__module__.startswith("repro.")
})))
"""

#: ``import repro.cli.main`` after setting the collector as ``sys.argv[1]``
#: says (and, with ``sys.argv[2]``, ``sys.argv[0]``); prints the state after.
_GC_AFTER_IMPORT = """
import gc, json, sys
if sys.argv[1] == "disabled":
    gc.disable()
if len(sys.argv) > 2:
    sys.argv[0] = sys.argv[2]
import repro.cli.main
print(json.dumps({"enabled": gc.isenabled(), "frozen": gc.get_freeze_count()}))
"""


def _child_report(script, *args):
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True,
        env=_child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestColdImport:
    """What ``import repro.cli.main`` costs and changes, in fresh interpreters."""

    def test_dataclass_ceiling(self):
        defined = _child_report(_COUNT_DATACLASSES)
        assert len(defined) <= COLD_IMPORT_DATACLASSES, defined

    @pytest.mark.parametrize("state", ["enabled", "disabled"])
    def test_library_import_leaves_the_collector_alone(self, state):
        report = _child_report(_GC_AFTER_IMPORT, state)
        assert report == {"enabled": state == "enabled", "frozen": 0}

    def test_console_script_import_freezes_and_reenables_the_collector(self):
        report = _child_report(_GC_AFTER_IMPORT, "enabled", os.path.join("bin", "scfi"))
        assert report["enabled"] is True
        assert report["frozen"] > 0


class TestColdRunPath:
    def test_cold_run_skips_heavy_modules_and_replays_golden(self, tmp_path):
        """A fresh ``scfi run`` loads neither networkx nor numpy.ma -- nor,
        at ``workers=1``, the worker fleet's ``multiprocessing``, ``tarfile``
        or any module of :data:`DEFERRED_MODULES` -- and still reproduces the
        committed golden counters."""
        spec = tmp_path / "experiment.json"
        shutil.copy(EXAMPLE_SPEC, spec)
        out = tmp_path / "result.json"
        script = (
            "import json, sys\n"
            "from repro.cli.main import main\n"
            "imported = sorted(sys.modules)\n"
            f"code = main(['run', {str(spec)!r}, '--quiet', '--out', {str(out)!r}])\n"
            "print(json.dumps({'code': code, 'imported': imported, 'modules': sorted(sys.modules)}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["code"] == 0
        imported = [m for m in report["imported"] if m == "repro" or m.startswith("repro.")]
        assert len(imported) <= COLD_IMPORT_REPRO_MODULES, imported
        loaded = set(report["modules"])
        assert not {m for m in loaded if m == "networkx" or m.startswith("networkx.")}
        assert "numpy.ma" not in loaded
        assert not loaded & {"multiprocessing", "tarfile"}
        assert not loaded & DEFERRED_MODULES
        golden = json.loads((REPO / "examples" / "experiment.golden.json").read_text())
        campaigns = json.loads(out.read_text())["campaigns"]
        assert set(campaigns) == set(golden["campaigns"])
        for name, expected in golden["campaigns"].items():
            for key, value in expected.items():
                assert campaigns[name][key] == value, (name, key)


def _entry_env():
    """:func:`_child_env` with stdout block-buffered, as it is for a pipe by
    default, so a process that exits without flushing loses its output."""
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _scfi_process(*args):
    """Run ``python -m repro.cli.main`` -- the process entry point -- to exit."""
    return subprocess.run(
        [sys.executable, "-m", "repro.cli.main", *args],
        capture_output=True, text=True, env=_entry_env(), timeout=120,
    )


class TestProcessEntry:
    """What leaves a ``scfi`` process once its entry point skips the exit-time
    garbage collection: stdout, exit codes, and no process left behind."""

    def test_stdout_document_is_complete_and_equals_in_process_main(self, capsys):
        assert scfi_main(["run", str(EXAMPLE_SPEC), "--quiet"]) == 0
        in_process = capsys.readouterr().out
        proc = _scfi_process("run", str(EXAMPLE_SPEC), "--quiet")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == in_process
        assert json.loads(proc.stdout)["campaigns"]

    def test_bad_spec_exits_2_with_one_error_line(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"fsm": {"name": "traffic_light"},
                                    "campaign": {"scenario": "meltdown"}}))
        proc = _scfi_process("run", str(spec))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("scfi run: "), proc.stderr
        assert proc.stdout == ""

    def test_unwritable_out_exits_2_with_one_error_line(self, tmp_path):
        out = tmp_path / "absent" / "result.json"
        proc = _scfi_process("run", str(EXAMPLE_SPEC), "--quiet", "--out", str(out))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("scfi run: cannot write result to ")
        assert proc.stdout == ""

    def test_sharded_run_leaves_no_process_behind(self, tmp_path):
        """``--workers 2`` starts a fleet; once the process has exited, nothing
        of its session (started fresh, so the fleet is in it) is alive."""
        out = tmp_path / "result.json"
        # Files, not pipes: a leftover process holding a pipe open would
        # stall the read instead of failing the check below.
        with open(tmp_path / "stderr.txt", "w+") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli.main", "run", str(EXAMPLE_SPEC),
                 "--workers", "2", "--quiet", "--out", str(out)],
                stdout=subprocess.DEVNULL, stderr=stderr, env=_entry_env(),
                start_new_session=True,
            )
            try:
                proc.wait(timeout=120)
            finally:
                # Kill whatever of the session is still alive, and note it.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    leftover = False
                else:
                    leftover = True
                    proc.wait()
            stderr.seek(0)
            assert proc.returncode == 0, stderr.read()
        assert not leftover, "a process of the finished scfi run was still alive"
        assert json.loads(out.read_text())["provenance"]["workers"] == 2


def _shm_names():
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


#: Child of the kill-a-worker test: the first fleet task any worker picks up
#: SIGKILLs that worker (claimed through an ``O_EXCL`` marker, so exactly one
#: dies), then a plain ``scfi run --workers 2`` runs to completion.
_KILL_ONE_WORKER = """
import json, multiprocessing, os, signal, sys
from repro.cli.main import main
from repro.fi.executor import FaultCampaign

spec, out, marker = sys.argv[1:]
parent = os.getpid()
evaluate = FaultCampaign._task_replies

def first_task_kills_its_worker(self, task):
    if os.getpid() != parent:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    return evaluate(self, task)

FaultCampaign._task_replies = first_task_kills_its_worker
code = main(["run", spec, "--workers", "2", "--quiet", "--out", out])
print(json.dumps({
    "code": code,
    "killed": os.path.exists(marker),
    "children": [child.name for child in multiprocessing.active_children()],
}))
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker wrapper reaches the workers by fork inheritance",
)
class TestKilledWorker:
    def test_run_survives_a_sigkilled_worker(self, tmp_path):
        """A worker SIGKILLed on its first task is replaced and its task
        re-run: ``scfi run --workers 2`` exits 0 with the golden counters,
        leaves no child process and no shared-memory segment."""
        out = tmp_path / "result.json"
        shm_before = _shm_names()
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_ONE_WORKER, str(EXAMPLE_SPEC), str(out),
             str(tmp_path / "killed")],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report == {"code": 0, "killed": True, "children": []}
        assert _shm_names() <= shm_before
        golden = json.loads((REPO / "examples" / "experiment.golden.json").read_text())
        campaigns = json.loads(out.read_text())["campaigns"]
        assert set(campaigns) == set(golden["campaigns"])
        for name, expected in golden["campaigns"].items():
            for key, value in expected.items():
                assert campaigns[name][key] == value, (name, key)
