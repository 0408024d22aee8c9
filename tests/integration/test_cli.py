"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import main

COTC = """
T(x, y) :- E(x, y).
T(x, z) :- T(x, y), E(y, z).
O(x, y) :- Adom(x), Adom(y), not T(x, y).
"""
GRAPH = "E(1, 2). E(2, 3)."
GAME = "Move(1, 2). Move(2, 1). Move(2, 3)."


@pytest.fixture
def files(tmp_path):
    program = tmp_path / "cotc.dl"
    program.write_text(COTC)
    facts = tmp_path / "graph.dl"
    facts.write_text(GRAPH)
    game = tmp_path / "game.dl"
    game.write_text(GAME)
    return program, facts, game


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestAnalyze:
    def test_reports_fragment_and_strategy(self, files):
        program, _, _ = files
        code, text = run_cli("analyze", str(program))
        assert code == 0
        assert "semicon-datalog" in text
        assert "Mdisjoint" in text
        assert "F2" in text
        assert "disjoint" in text

    def test_barrier_warning(self, tmp_path):
        program = tmp_path / "p2.dl"
        program.write_text(
            """
            T(x, y, z) :- E(x, y), E(y, z), E(z, x), y != x, y != z, x != z.
            D(x1) :- T(x1, x2, x3), T(y1, y2, y3),
                     x1 != y1, x1 != y2, x1 != y3,
                     x2 != y1, x2 != y2, x2 != y3,
                     x3 != y1, x3 != y2, x3 != y3.
            O(x) :- Adom(x), not D(x).
            """
        )
        code, text = run_cli("analyze", str(program))
        assert code == 0
        assert "barrier" in text or "coordinates" in text


class TestEval:
    def test_outputs_facts(self, files):
        program, facts, _ = files
        code, text = run_cli("eval", str(program), str(facts))
        assert code == 0
        assert "O(2, 1)" in text
        assert "O(1, 2)" not in text


class TestRun:
    def test_distributed_matches(self, files):
        program, facts, _ = files
        code, text = run_cli("run", str(program), str(facts), "--nodes", "2")
        assert code == 0
        assert "matches centralized evaluation: OK" in text

    def test_seed_flag_accepted(self, files):
        program, facts, _ = files
        code, _ = run_cli("run", str(program), str(facts), "--seed", "5")
        assert code == 0

    def test_chaos_run_writes_report(self, files, tmp_path):
        import json

        program, facts, _ = files
        report_path = tmp_path / "report.json"
        code, text = run_cli(
            "run", str(program), str(facts),
            "--chaos", "--seed", "3", "--report", str(report_path), "--trace",
        )
        assert code == 0
        assert "matches centralized evaluation: OK" in text
        assert "channel:      faulty" in text
        assert "scheduler:    chaos" in text
        payload = json.loads(report_path.read_text())
        assert payload["quiesced"] is True
        assert payload["channel"] == "faulty"
        assert payload["scheduler"] == "chaos"
        assert set(payload["faults"]) == {
            "duplicated", "delayed", "dropped", "redelivered",
        }
        assert payload["trace"]
        assert payload["metrics"]["transitions"] == sum(
            node["transitions"] for node in payload["per_node"]
        )

    def test_scheduler_flag(self, files):
        program, facts, _ = files
        code, text = run_cli(
            "run", str(program), str(facts), "--scheduler", "starve"
        )
        assert code == 0
        assert "scheduler:    starve" in text


class TestSeedReproducibility:
    def test_chaos_reports_are_byte_identical_across_hash_seeds(self, files, tmp_path):
        """`repro run --chaos --seed S` is byte-reproducible from the CLI:
        the report must not depend on the interpreter's hash salt (frozenset
        iteration order), only on the declared --seed."""
        import subprocess
        import sys
        from pathlib import Path

        program, facts, _ = files
        src = Path(__file__).resolve().parents[2] / "src"
        reports = []
        for hash_seed in ("1", "2", "33"):
            report_path = tmp_path / f"report-{hash_seed}.json"
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro", "run",
                    str(program), str(facts),
                    "--chaos", "--seed", "7", "--scheduler", "chaos",
                    "--trace", "--report", str(report_path),
                ],
                env={"PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            reports.append(report_path.read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_different_seeds_draw_different_fault_schedules(self, files, tmp_path):
        import json

        program, facts, _ = files
        totals = []
        for seed in ("3", "4"):
            report_path = tmp_path / f"seed-{seed}.json"
            code, _ = run_cli(
                "run", str(program), str(facts),
                "--chaos", "--seed", seed, "--report", str(report_path),
            )
            assert code == 0
            payload = json.loads(report_path.read_text())
            totals.append(
                (payload["metrics"]["transitions"], tuple(sorted(payload["faults"].items())))
            )
        assert totals[0] != totals[1]


class TestCluster:
    def test_cluster_matches(self, files):
        program, facts, _ = files
        code, text = run_cli("cluster", str(program), str(facts))
        assert code == 0
        assert "matches centralized evaluation: OK" in text
        assert "transport:    memory" in text
        assert "token rounds:" in text

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_cluster_chaos_report(self, files, tmp_path, transport):
        import json

        program, facts, _ = files
        report_path = tmp_path / "cluster.json"
        code, text = run_cli(
            "cluster", str(program), str(facts),
            "--transport", transport, "--chaos", "--seed", "3",
            "--report", str(report_path),
        )
        assert code == 0
        assert "matches centralized evaluation: OK" in text
        payload = json.loads(report_path.read_text())
        assert payload["transport"] == f"{transport}+faulty"
        assert payload["scheduler"] == "async"
        assert payload["quiesced"] is True
        assert payload["token_rounds"] >= 1
        assert all(
            node["buffered_at_end"] == 0 for node in payload["per_node"]
        )

    def test_cluster_crash_recovery(self, files, tmp_path):
        import json

        program, facts, _ = files
        report_path = tmp_path / "crash.json"
        code, text = run_cli(
            "cluster", str(program), str(facts),
            "--chaos", "--crash", "--seed", "1",
            "--report", str(report_path),
        )
        assert code == 0
        assert "matches centralized evaluation: OK" in text
        assert "crashes:" in text
        assert "recoveries:" in text
        assert "wal replayed:" in text
        payload = json.loads(report_path.read_text())
        assert payload["crashes"] >= 1
        assert payload["recoveries"] == payload["crashes"]
        assert payload["wal_replayed"] >= 1
        assert payload["snapshot_bytes"] > 0
        assert payload["quiesced"] is True

    def test_cluster_crash_without_chaos(self, files):
        # --crash alone: quiet wire, crashes + recovery only.
        program, facts, _ = files
        code, text = run_cli(
            "cluster", str(program), str(facts), "--crash", "--max-crashes", "1"
        )
        assert code == 0
        assert "matches centralized evaluation: OK" in text
        assert "crash=1<=1" in text


class TestOptionRules:
    """Flags no runtime can serve together are one typed error: exit 1 with
    its message, before anything is read or run."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(
                ["--kill-node", "n2", "--kill-after", "1"],
                "runtime 'cluster' does not support kill",
                id="kill-without-processes",
            ),
            pytest.param(
                ["--run-dir", "logs"],
                "runtime 'cluster' does not support run_dir",
                id="run-dir-without-processes",
            ),
            pytest.param(
                ["--processes", "2", "--chaos"],
                "runtime 'processes' does not support faults",
                id="processes-chaos",
            ),
            pytest.param(
                ["--processes", "2", "--crash"],
                "runtime 'processes' does not support faults",
                id="processes-crash",
            ),
            pytest.param(
                ["--processes", "2", "--kill-node", "n2"],
                "'kill' needs a node and a positive transition count",
                id="kill-node-without-kill-after",
            ),
            pytest.param(
                ["--processes", "2", "--nodes", "5"],
                "does not combine with --nodes",
                id="processes-nodes",
            ),
            pytest.param(
                ["--processes", "2", "--transport", "tcp"],
                "or --transport",
                id="processes-transport",
            ),
            pytest.param(
                ["--max-crashes", "5"],
                "--max-crashes N is the budget of --crash",
                id="max-crashes-without-crash",
            ),
        ],
    )
    def test_a_combination_no_runtime_serves_exits_1(
        self, files, capsys, flags, message
    ):
        program, facts, _ = files
        code, text = run_cli("cluster", str(program), str(facts), *flags)
        assert (code, text) == (1, "")
        assert message in capsys.readouterr().err


class TestSolveGame:
    def test_classification(self, files):
        _, _, game = files
        code, text = run_cli("solve-game", str(game))
        assert code == 0
        assert "won:   2" in text
        assert "lost:  1, 3" in text

    def test_winning_moves_listed(self, files):
        _, _, game = files
        _, text = run_cli("solve-game", str(game))
        assert "2 wins via" in text


class TestErrors:
    def test_missing_file(self, capsys):
        code, _ = run_cli("analyze", "/definitely/not/there.dl")
        assert code == 2

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.dl"
        bad.write_text("O(x :- broken")
        code, _ = run_cli("analyze", str(bad))
        assert code == 1


class TestIlogAnalyze:
    def test_ilog_flag(self, tmp_path):
        program = tmp_path / "witness.dl"
        program.write_text(
            "P(*, x, y) :- E(x, y).\n"
            "P(*, x, z) :- P(p, x, y), E(y, z).\n"
            "O(x, y) :- P(p, x, y).\n"
        )
        code, text = run_cli("analyze", "--ilog", str(program))
        assert code == 0
        assert "sp-wilog" in text
        assert "invention:    P" in text

    def test_ilog_unsafe_reports_barrier(self, tmp_path):
        program = tmp_path / "leak.dl"
        program.write_text("P(*, x) :- V(x).\nO(p, x) :- P(p, x).\n")
        code, text = run_cli("analyze", "--ilog", str(program))
        assert code == 0
        assert "unsafe-ilog" in text
        assert "barrier" in text


TAGGED = 'Tag(x, y) :- S(x), L(y).\nO(x, y) :- E(x, y), not Tag(x, y).\n'
TAGGED_FACTS = 'E("a","b"). E("b","c"). E("c","a"). S("a"). S("c"). L("b").\n'


class TestOptimize:
    def test_plain_output_shows_upgrade_and_strata(self, tmp_path):
        program = tmp_path / "tagged.dl"
        program.write_text(TAGGED)
        code, text = run_cli("optimize", str(program))
        assert code == 0
        assert "effective:" in text and "Mdistinct" in text
        assert "[upgraded]" in text
        assert "stratum 1" in text and "stratum 2" in text

    def test_json_certificate_and_execution(self, tmp_path):
        program = tmp_path / "tagged.dl"
        program.write_text(TAGGED)
        facts = tmp_path / "facts.dl"
        facts.write_text(TAGGED_FACTS)
        code, text = run_cli("optimize", str(program), str(facts), "--json")
        assert code == 0
        doc = json.loads(text)
        assert doc["effective"]["upgraded"] is True
        assert doc["downward_consistent"] is True
        comparison = doc["comparison"]
        assert comparison["byte_identical"] is True
        assert comparison["measured_cheaper"] is True

    def test_monotone_program_reports_no_upgrade(self, tmp_path):
        program = tmp_path / "tc.dl"
        program.write_text("T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).")
        code, text = run_cli("optimize", str(program))
        assert code == 0
        assert "[upgraded]" not in text
        assert "broadcast" in text

    def test_parse_error_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.dl"
        bad.write_text("O(x :- nope")
        code, _ = run_cli("optimize", str(bad))
        assert code == 1
