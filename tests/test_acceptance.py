"""Acceptance battery: one test per criterion, one printed line each.

The battery computes a JSON-serializable report per criterion; the final
criterion reruns the whole battery from scratch and compares the serialized
bytes, so every report must be a pure function of the code and the seeds.
"""

from __future__ import annotations

import json

import pytest

from barriers.barrier import (
    Canonical,
    ELEMENT,
    ExactSize,
    Plus,
    Schreier,
    check_sperner,
    classify,
    density_probe,
    front,
    order_type,
    variant,
)
from barriers.coloring import check_bounded
from barriers.diag import OracleEntry, OracleFamily, StagedColoring, verify_defeat_rainbow, verify_defeat_thin
from barriers.ordinals import OMEGA, mul, parse_ordinal
from barriers.reduction import REDUCTIONS, adversarial_instances, check_reduction, random_instance
from barriers.seqs import GroundSet, Tail

import oracles
from conftest import EXTRA_POOL, SPEC_POOL

GROUND_AXIOMS = tuple(range(20))  # [0..19]
GROUND_REDUCTIONS = tuple(range(15))  # [0..14]
MIN_WITNESS_SIZE = 3
RANDOM_INSTANCES = 100
BASE_SEED = 20240801

# In this order, so that each barrier keeps its seeds as the grid grows.
REDUCTION_BARRIERS = {
    "canonical:w": Canonical(OMEGA),
    "exact:1": ExactSize(1),
    "exact:2": ExactSize(2),
    "schreier": Schreier(),
    "derived(schreier, 2)": SPEC_POOL["derived(schreier, 2)"],
    "restrict(schreier, evens)": EXTRA_POOL["restrict(schreier, evens)"],
}

REDUCTION_ARMS = (
    ("fs-to-rt", None),
    ("ts-to-rt", None),
    ("ts-to-fs", None),
    ("rrt-to-rt", 2),
    ("rrt-to-rt", 3),
    ("rrt2-to-fs", None),
)


# --- criterion reports -------------------------------------------------------


def criterion_1() -> dict:
    specs = {}
    for name, spec in SPEC_POOL.items():
        members = front(spec, GROUND_AXIOMS)
        probe = density_probe(spec, GROUND_AXIOMS)
        specs[name] = {
            "front_size": len(members),
            "sperner_ok": check_sperner(members),
            "hit": probe.hit,
            "inconclusive": probe.inconclusive,
            "violations": len(probe.violations),
        }
    ok = all(row["sperner_ok"] and row["violations"] == 0 for row in specs.values())
    return {"ok": ok, "specs": specs}


def criterion_2() -> dict:
    exact3 = len(front(ExactSize(3), range(6)))
    got, want = [], []
    for n in range(11):
        got.append(len(front(Schreier(), range(n))))
        want.append(len(oracles.front_oracle(Schreier(), range(n))))
    ok = exact3 == 20 and got == want and got[6] == 8
    return {"ok": ok, "exact3_count": exact3, "schreier_counts": got, "oracle_counts": want}


def criterion_3() -> dict:
    members = [s for s in front(Schreier(), range(11)) if s[-1] >= 1]
    exceptions = []
    checked = 0
    for s in members:
        for k in range(11):
            if k in s or k >= s[-1]:
                continue
            checked += 1
            got = variant(Schreier(), s, k)
            if k < s[0]:
                want = (k,) + s[:k]
            else:
                i = max(j for j in range(len(s)) if s[j] < k)
                want = s[: i + 1] + (k,) + s[i + 1 : s[0]]
            if got != want or not got < s:
                exceptions.append({"s": list(s), "k": k, "got": list(got), "want": list(want)})
    return {"ok": not exceptions, "members": len(members), "checked": checked, "exceptions": exceptions}


def criterion_4() -> dict:
    cases = {}
    for name, spec in SPEC_POOL.items():
        if name.startswith("derived"):
            continue  # order type not tracked for derived barriers
        cases[name] = {
            "plus_type": str(order_type(Plus(spec))),
            "expected": str(mul(OMEGA, order_type(spec))),
        }
    collapse = str(order_type(Plus(Schreier())))
    ok = all(row["plus_type"] == row["expected"] for row in cases.values()) and collapse == "w^w"
    return {"ok": ok, "collapse_plus_schreier": collapse, "cases": cases}


def criterion_5() -> dict:
    arms = {}
    ok = True
    for arm_idx, (red_name, bound) in enumerate(REDUCTION_ARMS):
        for b_idx, (b_name, spec) in enumerate(REDUCTION_BARRIERS.items()):
            instances = [
                random_instance(
                    red_name,
                    spec,
                    GROUND_REDUCTIONS,
                    seed=BASE_SEED + 1_000_000 * arm_idx + 10_000 * b_idx + i,
                    bound=bound,
                )
                for i in range(RANDOM_INSTANCES)
            ]
            instances.extend(adversarial_instances(red_name, spec, GROUND_REDUCTIONS, bound=bound))
            counterexamples = 0
            checked = 0
            max_chain = 0
            worst_color = None
            for f in instances:
                report = check_reduction(red_name, f, GROUND_REDUCTIONS, MIN_WITNESS_SIZE)
                counterexamples += len(report.counterexamples)
                checked += report.checked_witnesses
                max_chain = max(max_chain, report.max_recursion_chain)
                if report.forward_max_color is not None:
                    worst_color = max(worst_color or 0, report.forward_max_color)
            label = red_name if bound is None else f"{red_name}:k{bound}"
            arms[f"{label}|{b_name}"] = {
                "instances": len(instances),
                "checked_witnesses": checked,
                "counterexamples": counterexamples,
                "max_recursion_chain": max_chain,
                "bound": 2 if bound is None and REDUCTIONS[red_name].source_property == "rainbow" else bound,
                "forward_max_color": worst_color,
            }
            ok = ok and counterexamples == 0
    return {"ok": ok, "min_size": MIN_WITNESS_SIZE, "arms": arms}


def criterion_6(c5: dict) -> dict:
    # Lex decrease of every memo hop is asserted inside the forward coloring;
    # any violation would have aborted criterion 5.  Here: chains finite.
    chains = {
        arm: row["max_recursion_chain"]
        for arm, row in c5["arms"].items()
        if arm.startswith("fs-to-rt")
    }
    ok = all(isinstance(v, int) and v >= 0 for v in chains.values())
    return {"ok": ok, "max_chain_by_arm": chains}


def criterion_7(c5: dict) -> dict:
    rows = {}
    ok = True
    for arm, row in c5["arms"].items():
        if not arm.startswith("rrt-to-rt"):
            continue
        within = row["forward_max_color"] is not None and row["forward_max_color"] < row["bound"]
        rows[arm] = {"forward_max_color": row["forward_max_color"], "bound": row["bound"], "ok": within}
        ok = ok and within
    return {"ok": ok, "arms": rows}


def criterion_8() -> dict:
    evens = GroundSet(tail=Tail(0, 2))
    family = OracleFamily((OracleEntry(0, evens, 0), OracleEntry(1, evens, 0)))
    bound = 16
    results = {}
    ok = True
    for alpha_text in ("1", "w"):
        alpha = parse_ordinal(alpha_text)
        thin = StagedColoring("thin", alpha, family)
        for e, i in ((0, 0), (0, 1), (1, 0)):
            res = verify_defeat_thin(thin, e, i, bound)
            valid = res.ok
            if valid:
                m, stage = res.found
                valid = (
                    m in evens
                    and all(x in evens for x in stage)
                    and classify(Canonical(alpha), stage) is ELEMENT
                    and thin.stage_colors(stage)[m] == i
                )
            results[f"thin|alpha={alpha_text}|e={e},i={i}"] = {
                "reason": res.reason,
                "witness": res.to_json()["found"],
            }
            ok = ok and valid
        rainbow = StagedColoring("rainbow", alpha, family)
        res = verify_defeat_rainbow(rainbow, 0, bound)
        valid = res.ok
        if valid:
            m, l, stage = res.found
            valid = rainbow.stage_colors(stage)[m] == rainbow.stage_colors(stage)[l]
        two_bounded, worst = check_bounded(rainbow, range(13))
        results[f"rainbow|alpha={alpha_text}|e=0"] = {
            "reason": res.reason,
            "witness": res.to_json()["found"],
            "two_bounded": two_bounded,
            "max_multiplicity": worst,
        }
        ok = ok and valid and two_bounded
    return {"ok": ok, "bound": bound, "results": results}


def run_battery() -> dict:
    c5 = criterion_5()
    return {
        "criterion_1": criterion_1(),
        "criterion_2": criterion_2(),
        "criterion_3": criterion_3(),
        "criterion_4": criterion_4(),
        "criterion_5": c5,
        "criterion_6": criterion_6(c5),
        "criterion_7": criterion_7(c5),
        "criterion_8": criterion_8(),
    }


@pytest.fixture(scope="module")
def battery() -> dict:
    return run_battery()


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_barrier_axioms(battery):
    c = battery["criterion_1"]
    _report(1, c["ok"], f"{len(c['specs'])} specs on [{GROUND_AXIOMS[0]}..{GROUND_AXIOMS[-1]}], sperner + density clean")
    assert c["ok"], c


def test_criterion_2_front_counts(battery):
    c = battery["criterion_2"]
    _report(
        2, c["ok"],
        f"exact:3 gives {c['exact3_count']}; schreier counts {c['schreier_counts']} match the subset filter",
    )
    assert c["ok"], c


def test_criterion_3_variant_laws(battery):
    c = battery["criterion_3"]
    _report(
        3, c["ok"],
        f"{c['checked']} variants over {c['members']} members, {len(c['exceptions'])} exceptions",
    )
    assert c["ok"], c["exceptions"][:5]


def test_criterion_4_order_types(battery):
    c = battery["criterion_4"]
    _report(
        4, c["ok"],
        f"{len(c['cases'])} specs satisfy the plus law; plus(schreier) collapses to {c['collapse_plus_schreier']}",
    )
    assert c["ok"], c


def test_criterion_5_reduction_soundness(battery):
    c = battery["criterion_5"]
    total = sum(row["instances"] for row in c["arms"].values())
    checked = sum(row["checked_witnesses"] for row in c["arms"].values())
    cex = sum(row["counterexamples"] for row in c["arms"].values())
    _report(
        5, c["ok"],
        f"{len(c['arms'])} arms, {total} instances, {checked} witnesses, {cex} counterexamples",
    )
    assert c["ok"], {k: v for k, v in c["arms"].items() if v["counterexamples"]}


def test_criterion_6_recursion_chains(battery):
    c = battery["criterion_6"]
    _report(6, c["ok"], f"memo chains lex-decrease; maxima {c['max_chain_by_arm']}")
    assert c["ok"], c


def test_criterion_7_twin_count_range(battery):
    c = battery["criterion_7"]
    detail = {k: v["forward_max_color"] for k, v in c["arms"].items()}
    _report(7, c["ok"], f"transformed colors stay below k: {detail}")
    assert c["ok"], c


def test_criterion_8_diagonalization(battery):
    c = battery["criterion_8"]
    found = sum(1 for row in c["results"].values() if row["reason"] == "ok")
    _report(8, c["ok"], f"{found}/{len(c['results'])} defeats within bound {c['bound']}, rainbow 2-bounded")
    assert c["ok"], c


def test_criterion_9_determinism(battery):
    second = run_battery()
    first_bytes = json.dumps(battery, sort_keys=True).encode()
    second_bytes = json.dumps(second, sort_keys=True).encode()
    ok = first_bytes == second_bytes
    _report(9, ok, f"two battery runs serialize to {len(first_bytes)} identical bytes")
    assert ok
