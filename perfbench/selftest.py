"""Self-tests of the benchmark's validators.

Run standalone (`python3 perfbench/selftest.py [--probe PATH]`) or from
run.py before every measurement. A validator that accepts a wrong output
makes every later "correct" meaningless, so run.py refuses to measure
when any of these fail.
"""

import json
import subprocess
import sys

import validate

# The class-skip defect: Rng::NextGeometric casts a skip length >= 2^64
# to 0, so a probability class below ~1e-19 turns into a complete
# bipartite block. For this initiator at k=10 kClassSkip drew 250,058
# edges; kExact, kEdgeSkip and kBallDrop draw 1,831-1,903.
DEFECT_THETA = (0.84, 0.7178, 1e-9)
DEFECT_K = 10
DEFECT_CLASS_SKIP_EDGES = 250058
CORRECT_SAMPLER_EDGES = (1831, 1903)


def _reply(deduped, spent, remaining, epsilon=0.25, delta=0.01):
    rows = [{"series": f"g/{s}/{p}", "x": 0, "y": 0.5}
            for s in ("kronfit", "kronmom", "private") for p in "abc"]
    ledger = [{"label": "degree_sequence", "epsilon": epsilon / 2,
               "delta": 0},
              {"label": "triangle_count", "epsilon": epsilon / 2,
               "delta": delta}]
    budgets = [{"epsilon_total": epsilon, "delta_total": delta,
                "epsilon_spent": epsilon, "delta_spent": delta,
                "ledger": ledger}] * 3
    return {"request_id": "r1", "ok": True, "code": "OK", "analyst": "a",
            "deduped": deduped,
            "charge": {"epsilon": epsilon, "delta": delta},
            "budget": {"epsilon_spent": spent,
                       "epsilon_remaining": remaining, "delta_spent": 0.01},
            "run": {"tables": [{"experiment": "table1_parameters/parameters",
                                "rows": rows}],
                    "budgets": budgets}}


def run_selftests(probe=None):
    """Returns a list of failure strings (empty = all passed)."""
    failures = []

    def expect(name, problems, should_reject):
        if bool(problems) != should_reject:
            verdict = "accepted" if not problems else f"rejected: {problems}"
            failures.append(f"{name}: validator {verdict}")

    # Sample edge counts against the closed-form expectation.
    expect("class-skip defect sample",
           validate.check_sample_edges(DEFECT_CLASS_SKIP_EDGES, DEFECT_THETA,
                                       DEFECT_K), True)
    for edges in CORRECT_SAMPLER_EDGES:
        expect(f"correct sampler sample ({edges} edges)",
               validate.check_sample_edges(edges, DEFECT_THETA, DEFECT_K),
               False)
    if probe is not None:
        # A live kExact sample of the same initiator must validate.
        out = subprocess.run(
            [probe, "sample", "--theta=%r,%r,%r" % DEFECT_THETA,
             f"--k={DEFECT_K}", "--method=exact", "--seed=1"],
            check=True, capture_output=True, text=True, timeout=60).stdout
        edges = json.loads(out)["edges"]
        expect(f"live kExact sample ({edges} edges)",
               validate.check_sample_edges(edges, DEFECT_THETA, DEFECT_K),
               False)

    # Ledger replies: fresh charge, dedup, over-charge, charging dedup.
    base = {"analyst": "a", "epsilon": 0.25, "delta": 0.01, "total": 1.0}
    expect("correct release reply",
           validate.check_release_reply(
               _reply(False, 0.5, 0.5),
               dict(base, kind="release", spent_after=0.5)), False)
    expect("correct dedup reply",
           validate.check_release_reply(
               _reply(True, 0.5, 0.5),
               dict(base, kind="retry", spent_after=0.5)), False)
    expect("over-charged reply",
           validate.check_release_reply(
               _reply(False, 0.75, 0.25, epsilon=0.5),
               dict(base, kind="release", spent_after=0.5)), True)
    expect("dedup reply that charges",
           validate.check_release_reply(
               _reply(True, 0.75, 0.25),
               dict(base, kind="retry", spent_after=0.5)), True)
    expect("inconsistent epsilon_remaining",
           validate.check_release_reply(
               _reply(False, 0.5, 0.75),
               dict(base, kind="release", spent_after=0.5)), True)
    expect("shed reply where a refusal is expected",
           validate.check_release_reply(
               {"ok": False, "code": "RESOURCE_EXHAUSTED",
                "retry_after_ms": 50},
               dict(base, kind="refused", spent_after=1.0)), True)

    # Statistics panels.
    # A 3-node path plus an isolated node: singular values sqrt(2) twice.
    good = {"degree_distribution": [(0, 1), (1, 2), (2, 1)],
            "scree_plot": [(1, 2 ** 0.5), (2, 2 ** 0.5)],
            "hop_plot": [(0, 4), (1, 10), (2, 16)],
            "network_value": [(1, 0.6), (2, 0.5)],
            "clustering": [(2, 0.0)]}
    expect("path graph panels", validate.check_series("path", good, 4, 2)[0],
           False)
    bad_scree = dict(good, scree_plot=[(1, 0.6), (2, 1.4)])
    expect("ascending scree", validate.check_series("p", bad_scree, 4)[0],
           True)
    bad_hops = dict(good, hop_plot=[(0, 4), (1, 10), (2, 9)])
    expect("decreasing hop plot", validate.check_series("p", bad_hops, 4)[0],
           True)
    expect("histogram/node mismatch",
           validate.check_series("p", good, 5)[0], True)

    # Sweep grids: every cell present, each with three exact ledgers.
    run = _reply(False, 0.5, 0.5)["run"]
    cell = {"ok": True, "epsilon": 0.25, "seed_index": 0,
            "run": dict(run, params={"epsilon": 0.25, "delta": 0.01})}
    cells = validate.check_sweep_doc({"failed_runs": 0, "runs": [cell]},
                                     [0.25], 2)
    expect("complete sweep cell", cells[(0.25, 0)], False)
    expect("sweep missing a cell", cells[(0.25, 1)], True)
    return failures


def main():
    probe = None
    if "--probe" in sys.argv:
        probe = sys.argv[sys.argv.index("--probe") + 1]
    failures = run_selftests(probe)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: %s" % ("ok" if not failures else
                            f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
