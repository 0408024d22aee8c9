"""``repro cluster`` and ``POST /v1/runs`` with ``"mode": "cluster"`` are two
front ends of one request pipeline: the same program and facts give the
same protocol and the same output fingerprint through either."""

import io
import json

import pytest

from repro.cli import main
from repro.service import RunStore, execute_request

TC = "T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z).\n"
TC_FACTS = "E(1, 2). E(2, 3). E(3, 4).\n"
# Triangles unless two disjoint ones: in no class, so routed to the barrier.
NONMONO = """\
T(x, y, z) :- E(x, y), E(y, z), E(z, x), y != x, y != z, x != z.
D(x1) :- T(x1, x2, x3), T(y1, y2, y3),
         x1 != y1, x1 != y2, x1 != y3,
         x2 != y1, x2 != y2, x2 != y3,
         x3 != y1, x3 != y2, x3 != y3.
O(x) :- Adom(x), not D(x).
"""
NONMONO_FACTS = "E(1, 2). E(2, 3). E(3, 1). Adom(1). Adom(2). Adom(3). Adom(4).\n"

#: planner -> (program, facts, the service's switch for that planner).  The
#: CLI has no switch: it routes the non-monotone program to the barrier.
CASES = {
    "default": (TC, TC_FACTS, {}),
    "barrier": (NONMONO, NONMONO_FACTS, {"force_barrier": True}),
}


@pytest.mark.parametrize("planner", sorted(CASES))
def test_cluster_command_and_service_agree(planner, tmp_path):
    program, facts, switches = CASES[planner]
    (tmp_path / "p.dl").write_text(program)
    (tmp_path / "f.dl").write_text(facts)
    report = tmp_path / "report.json"
    out = io.StringIO()
    argv = ["cluster", str(tmp_path / "p.dl"), str(tmp_path / "f.dl")]
    code = main([*argv, "--seed", "4", "--report", str(report)], out=out)
    assert code == 0, out.getvalue()
    cli = json.loads(report.read_text())

    status, body = execute_request(
        RunStore(":memory:"),
        {"tenant": "t", "program": program, "facts": facts, "mode": "cluster",
         "seed": 4, **switches},
    )
    assert status == 200, body
    assert body["output_fingerprint"] == cli["output_fingerprint"]
    assert body["decision"]["protocol"] == body["report"]["protocol"] == cli["protocol"]
    assert f"strategy:     {cli['protocol']}\n" in out.getvalue()
    assert body["decision"]["requires_barrier"] is (planner == "barrier")
