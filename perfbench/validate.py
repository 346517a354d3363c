"""Output validation for the dpkron benchmark.

Every check is a tolerance-based invariant that any correct version of
the program satisfies -- never a byte-golden of a particular build -- so
an optimisation that changes low-order bits (Lanczos) or noise draws
still validates. Each validator returns a list of problem strings; an
empty list means the output passed.
"""

import hashlib
import json
import math
import re

# Samples must land within this many standard deviations of the
# closed-form edge expectation. A sum of independent Bernoullis has
# variance <= mean, so sqrt(mean) bounds the standard deviation; at 6 sd
# a correct sampler is rejected with probability ~2e-9 per sample.
SAMPLE_Z = 6.0
# Scenario documents print initiators with 4 decimals.
PRINTED_THETA_HALF_UNIT = 5e-5
REL_TOL = 1e-9
LEDGER_TOL = 1e-12


# ------------------------------------------------------------ SKG samples

def expected_edges(theta, k):
    """E[#edges] of the undirected SKG (a b; b c)^[k] without loops."""
    a, b, c = theta
    return 0.5 * ((a + 2 * b + c) ** k - (a + c) ** k)


def sample_edge_band(theta, k, half_unit=0.0):
    """(lo, hi) edge counts a correct sample of Theta^[k] lands in.

    `half_unit` widens Theta to the interval a rounded printout stands
    for; the expectation is increasing in a, b and c, so the interval's
    corners bound it.
    """
    lo_theta = [min(1.0, max(0.0, x - half_unit)) for x in theta]
    hi_theta = [min(1.0, max(0.0, x + half_unit)) for x in theta]
    mean_lo = expected_edges(lo_theta, k)
    mean_hi = expected_edges(hi_theta, k)
    sd = math.sqrt(max(mean_hi, 0.0))
    return mean_lo - SAMPLE_Z * sd - 0.5, mean_hi + SAMPLE_Z * sd + 0.5


def check_sample_edges(edges, theta, k, half_unit=0.0, label="sample"):
    if any(not 0.0 <= x <= 1.0 for x in theta):
        return [f"{label}: theta {theta} outside [0,1]"]
    lo, hi = sample_edge_band(theta, k, half_unit)
    if not lo <= edges <= hi:
        mean = expected_edges(theta, k)
        return [f"{label}: {edges} edges, expected {mean:.1f} "
                f"(accepted band [{lo:.0f}, {hi:.0f}], k={k})"]
    return []


# ----------------------------------------------------- statistics panels

def parse_theta(text):
    """'[a b; b c]' -> (a, b, c)."""
    numbers = [float(x) for x in re.findall(r"[-+0-9.eE]+", text)]
    if len(numbers) != 4 or numbers[1] != numbers[2]:
        raise ValueError(f"unparseable initiator {text!r}")
    return numbers[0], numbers[1], numbers[3]


def check_series(label, series, nodes, edges=None):
    """The five panels of one graph.

    series: {"degree_distribution": [(x, y)], "scree_plot": [...],
    "hop_plot": [...], "network_value": [...], "clustering": [...]},
    rows in document order. Returns (problems, observed_edges).
    """
    problems = []
    hist = series.get("degree_distribution", [])
    count = sum(y for _, y in hist)
    if count != nodes:
        problems.append(f"{label}: degree histogram sums to {count}, "
                        f"graph has {nodes} nodes")
    degree_sum = sum(x * y for x, y in hist)
    observed_edges = degree_sum / 2
    if degree_sum % 2:
        problems.append(f"{label}: odd degree sum {degree_sum}")
    if edges is not None and observed_edges != edges:
        problems.append(f"{label}: histogram implies {observed_edges} edges, "
                        f"graph has {edges}")
    dmax = max((x for x, y in hist if y > 0), default=0)

    scree = [y for _, y in series.get("scree_plot", [])]
    if observed_edges > 0 and not scree:
        problems.append(f"{label}: empty scree plot")
    if any(s < 0 for s in scree):
        problems.append(f"{label}: negative singular value")
    if any(b > a * (1 + REL_TOL) for a, b in zip(scree, scree[1:])):
        problems.append(f"{label}: scree not descending")
    if scree and dmax > 0:
        s1 = scree[0]
        if not math.sqrt(dmax) * (1 - 1e-6) <= s1 <= dmax * (1 + REL_TOL):
            problems.append(f"{label}: sigma_1={s1:.6g} outside "
                            f"[sqrt(dmax), dmax] for dmax={dmax}")
    sum_sq = sum(s * s for s in scree)
    if sum_sq > 2 * observed_edges * (1 + REL_TOL):
        problems.append(f"{label}: sum sigma^2={sum_sq:.6g} exceeds "
                        f"2E={2 * observed_edges:.6g}")

    hops = [y for _, y in series.get("hop_plot", [])]
    if any(h < 0 for h in hops):
        problems.append(f"{label}: negative hop-plot value")
    if any(b < a for a, b in zip(hops, hops[1:])):
        problems.append(f"{label}: hop plot decreases")

    values = [y for _, y in series.get("network_value", [])]
    if any(not 0 <= v <= 1 + REL_TOL for v in values):
        problems.append(f"{label}: network value outside [0,1]")
    if any(b > a * (1 + REL_TOL) for a, b in zip(values, values[1:])):
        problems.append(f"{label}: network value not descending")

    if any(not 0 <= y <= 1 + REL_TOL
           for _, y in series.get("clustering", [])):
        problems.append(f"{label}: clustering coefficient outside [0,1]")
    return problems, observed_edges


def check_budgets(label, budgets, epsilon, delta):
    """Each ledger charges exactly the requested (epsilon, delta)."""
    problems = []
    if not budgets:
        problems.append(f"{label}: no privacy ledger")
    for budget in budgets:
        spent = (budget["epsilon_spent"], budget["delta_spent"])
        charged = (sum(e["epsilon"] for e in budget["ledger"]),
                   sum(e["delta"] for e in budget["ledger"]))
        for name, value, want in (("epsilon", spent[0], epsilon),
                                  ("delta", spent[1], delta),
                                  ("ledger epsilon", charged[0], epsilon),
                                  ("ledger delta", charged[1], delta)):
            if abs(value - want) > LEDGER_TOL:
                problems.append(f"{label}: {name} charged {value!r}, "
                                f"requested {want!r}")
    return problems


def _series_by_panel(run):
    panels = {}
    for table in run.get("tables", []):
        panel = table["experiment"].split("/", 1)[1]
        for row in table["rows"]:
            panels.setdefault(row["series"], {}).setdefault(panel, []).append(
                (row["x"], row["y"]))
    return panels


FIGURE_SERIES = {"kronfit": "KronFit", "kronmom": "KronMom",
                 "private": "Private"}


def check_figures_doc(doc, datasets, scenarios):
    """A scenarios.v1 document of figure runs.

    datasets: scenario name -> {"nodes", "edges"} of the input graph the
    driver built from the same seed.
    """
    problems = []
    runs = {run["scenario"]: run for run in doc.get("runs", [])}
    if sorted(runs) != sorted(scenarios):
        return [f"runs {sorted(runs)} != expected {sorted(scenarios)}"]
    for name in scenarios:
        run = runs[name]
        summaries = {s["title"]: s["items"] for s in run["summaries"]}
        data = summaries.get(f"{name} dataset", {})
        thetas = summaries.get(f"{name} fitted initiators (a b c)", {})
        nodes = int(data.get("nodes", -1))
        edges = int(data.get("edges", -1))
        k = int(data.get("kronecker order k", -1))
        want = datasets[name]
        if (nodes, edges) != (want["nodes"], want["edges"]):
            problems.append(f"{name}: input graph {nodes} nodes/{edges} edges,"
                            f" generated {want['nodes']}/{want['edges']}")
        if k < 1 or 2 ** k < nodes or 2 ** (k - 1) >= nodes:
            problems.append(f"{name}: Kronecker order {k} for {nodes} nodes")
        params = run["params"]
        problems += check_budgets(name, run["budgets"], params["epsilon"],
                                  params["delta"])
        panels = _series_by_panel(run)
        if sorted(panels) != sorted(["original", *FIGURE_SERIES]):
            problems.append(f"{name}: series {sorted(panels)}")
            continue
        found, _ = check_series(f"{name}/original", panels["original"],
                                nodes, edges)
        problems += found
        for series, title in FIGURE_SERIES.items():
            try:
                theta = parse_theta(thetas[title])
            except (KeyError, ValueError) as err:
                problems.append(f"{name}/{series}: {err}")
                continue
            found, sample_edges = check_series(f"{name}/{series}",
                                               panels[series], 2 ** k)
            problems += found
            problems += check_sample_edges(sample_edges, theta, k,
                                           PRINTED_THETA_HALF_UNIT,
                                           f"{name}/{series}")
    return problems


# --------------------------------------------------------------- sweeps

def check_sweep_doc(doc, epsilons, seeds):
    """A sweeps.v1 document against its epsilon x seed grid.

    Returns {(epsilon, seed_index): problems} with one entry per grid
    cell: the cells must number exactly the grid. Document-level
    problems (extra or duplicate cells, a failed_runs count) are charged
    to the first cell.
    """
    grid = [(eps, s) for eps in epsilons for s in range(seeds)]
    result = {cell: ["missing from the document"] for cell in grid}
    extra = []
    for run in doc.get("runs", []):
        cell = (run["epsilon"], run["seed_index"])
        if cell not in result or result[cell] != ["missing from the document"]:
            extra.append(f"unexpected or duplicate cell {cell}")
            continue
        result[cell] = _check_sweep_cell(run)
    not_ok = sum(1 for run in doc.get("runs", []) if not run.get("ok"))
    if doc.get("failed_runs") != not_ok:
        extra.append(f"failed_runs={doc.get('failed_runs')}, {not_ok} cells "
                     "not ok")
    if extra:
        result[grid[0]] = result[grid[0]] + extra
    return result


def _check_sweep_cell(run):
    if not run.get("ok"):
        return [f"status {run.get('status')}"]
    problems = []
    body = run["run"]
    params = body["params"]
    if params["epsilon"] != run["epsilon"]:
        problems.append(f"ran at epsilon {params['epsilon']}")
    problems += check_budgets("ledger", body["budgets"], run["epsilon"],
                              params["delta"])
    if len(body["budgets"]) != 3:
        problems.append(f"{len(body['budgets'])} private trials, want 3")
    rows = [row for table in body["tables"] for row in table["rows"]]
    if len(rows) != 9:
        problems.append(f"{len(rows)} parameter rows, want 9")
    for row in rows:
        if not 0.0 <= row["y"] <= 1.0:
            problems.append(f"{row['series']}={row['y']} outside [0,1]")
    return problems


# ---------------------------------------------------------------- serve

def check_release_reply(reply, expect):
    """One dpkrond reply against what the mix expects.

    expect: {"kind": "release"|"retry"|"healthz"|"refused",
    "analyst", "epsilon", "delta", "spent_after"} where spent_after is
    the analyst's epsilon_spent once this request is answered (unchanged
    for retries and refusals) and "total" the per-analyst budget.
    """
    kind = expect["kind"]
    if kind == "healthz":
        if reply.get("ok") is not True or reply.get("type") != "healthz":
            return [f"healthz: {_short(reply)}"]
        return []
    if kind == "refused":
        if (reply.get("ok") is not False
                or reply.get("code") != "RESOURCE_EXHAUSTED"
                or "retry_after_ms" in reply):
            return [f"refusal expected for spent analyst "
                    f"{expect['analyst']}: {_short(reply)}"]
        return []
    if reply.get("ok") is not True:
        return [f"{kind} {reply.get('request_id')}: {_short(reply)}"]
    problems = []
    rid = reply.get("request_id")
    if reply.get("deduped") is not (kind == "retry"):
        problems.append(f"{kind} {rid}: deduped={reply.get('deduped')}")
    charge = reply.get("charge", {})
    if (abs(charge.get("epsilon", -1) - expect["epsilon"]) > LEDGER_TOL
            or abs(charge.get("delta", -1) - expect["delta"]) > LEDGER_TOL):
        problems.append(f"{kind} {rid}: charge {charge} != requested "
                        f"({expect['epsilon']}, {expect['delta']})")
    budget = reply.get("budget", {})
    spent = budget.get("epsilon_spent", -1)
    if abs(spent - expect["spent_after"]) > LEDGER_TOL:
        what = "dedup reply charged" if kind == "retry" else "ledger at"
        problems.append(f"{kind} {rid}: {what} epsilon_spent={spent}, "
                        f"expected {expect['spent_after']}")
    remaining = budget.get("epsilon_remaining", -1)
    if abs(remaining - (expect["total"] - expect["spent_after"])) > LEDGER_TOL:
        problems.append(f"{kind} {rid}: epsilon_remaining={remaining} "
                        f"inconsistent with spent {expect['spent_after']}")
    run = reply.get("run", {})
    rows = [row for table in run.get("tables", []) for row in table["rows"]]
    if len(rows) != 9 or any(not 0.0 <= r["y"] <= 1.0 for r in rows):
        problems.append(f"{kind} {rid}: initiator rows invalid")
    problems += check_budgets(f"{kind} {rid}", run.get("budgets", []),
                              expect["epsilon"], expect["delta"])
    return problems


def _short(obj):
    text = json.dumps(obj, sort_keys=True)
    return text if len(text) < 240 else text[:240] + "..."


# ------------------------------------------------------------- identity

def digest(obj):
    """Stable hash of a JSON-able value (floats at full precision)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def strip_timing(obj):
    """Drops wall-time fields, which legitimately differ run to run."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items()
                if k not in ("elapsed_seconds", "cache")}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj
