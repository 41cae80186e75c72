"""Size frontiers and single-run probes, measured with tracing off.

A sweep grows one family size by size and reports the largest size whose
computation finished within the budget (1 reference second, see speed.py).
Each step runs under a hard cap from an interval timer on this process's
main thread, so an over-budget step is interrupted instead of stalling the
run.  Graph construction is outside the timed region.  A probe times one
call once, on fresh objects, to compare with the single-run figures in
ROADMAP.md.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

from feyncomb import parametric, polynomials
from feyncomb.hopf import HopfAlgebra

from families import box_ladder, complete, cut_circulant, planar_wheel, ribbonize, wheel
from speed import calibrate, timed, to_reference

BUDGET_S = 1.0
HARD_CAP_S = 2.5  # wall seconds; leaves room for a within-budget step on a slow host
MAX_SIZE = 40


class StepTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise StepTimeout


@contextmanager
def hard_cap(seconds: float):
    """Interrupt the block with StepTimeout after `seconds` of wall time."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def sweep(build, compute, start: int) -> int:
    """Largest n >= start with compute(build(n)) under the budget (start - 1 if none)."""
    best = start - 1
    for n in range(start, MAX_SIZE + 1):
        subject = build(n)
        before = calibrate()
        try:
            with hard_cap(HARD_CAP_S):
                t0 = perf_counter()
                compute(subject)
                wall = perf_counter() - t0
        except StepTimeout:
            break
        if to_reference(wall, before, calibrate()) >= BUDGET_S:
            break
        best = n
    return best


def _hopf_coproduct(g) -> None:
    HopfAlgebra("phi4").coproduct(g)


# metric name -> (family builder, computation, first size)
SWEEPS = {
    "frontier.tutte.subset": (wheel, lambda g: polynomials.tutte(g, "subset"), 3),
    "frontier.tutte.delcon": (wheel, lambda g: polynomials.tutte(g, "delcon"), 3),
    "frontier.ztutte.subset": (wheel, lambda g: polynomials.multivariate_tutte(g, "subset"), 3),
    "frontier.ztutte.delcon": (wheel, lambda g: polynomials.multivariate_tutte(g, "delcon"), 3),
    "frontier.br.subset": (planar_wheel, lambda rg: polynomials.bollobas_riordan(rg, "subset"), 3),
    "frontier.br.delcon": (planar_wheel, lambda rg: polynomials.bollobas_riordan(rg, "delcon"), 3),
    "frontier.u.tree": (box_ladder, parametric.symanzik_u, 2),
    "frontier.u.det": (box_ladder, parametric.symanzik_u_via_det, 2),
    "frontier.u.delcon": (box_ladder, parametric.symanzik_u_delcon, 2),
    "frontier.u.tutte_limit": (box_ladder, parametric.u_from_multivariate_tutte, 2),
    "frontier.u.det_kn": (complete, parametric.symanzik_u_via_det, 3),
    "frontier.nc_u": (lambda n: ribbonize(box_ladder(n)), parametric.nc_u, 2),
    "frontier.hopf.coproduct": (cut_circulant, _hopf_coproduct, 5),
    "frontier.canonical_form": (cut_circulant, lambda g: g.canonical_form(), 5),
}


def probe_k6_u() -> dict[str, float]:
    """K6 U split into tree enumeration and the summation that follows it."""
    g = complete(6)
    trees = timed(g.spanning_trees)
    total = timed(lambda: parametric.symanzik_u(complete(6)))
    return {"probe.k6_u_trees_s": trees, "probe.k6_u_sum_s": max(total - trees, 0.0)}


def probe_c7_hopf() -> dict[str, float]:
    g = cut_circulant(7)
    h = HopfAlgebra("phi4")
    return {
        "probe.c7_coproduct_s": timed(lambda: h.coproduct(g)),
        "probe.c7_hopf_axioms_s": timed(lambda: h.check_hopf_axioms(g)),
    }


def probe_canonical_forms() -> dict[str, float]:
    return {
        "probe.c8_canonical_form_s": timed(cut_circulant(8).canonical_form),
        "probe.c9_canonical_form_s": timed(cut_circulant(9).canonical_form),
    }


def probe_w6_tutte() -> dict[str, float]:
    return {
        "probe.w6_tutte_subset_s": timed(lambda: polynomials.tutte(wheel(6), "subset")),
        "probe.w6_tutte_delcon_s": timed(lambda: polynomials.tutte(wheel(6), "delcon")),
    }


def probe_ladder4_udet() -> dict[str, float]:
    g = box_ladder(4)
    return {"probe.ladder4_udet_s": timed(lambda: parametric.symanzik_u_via_det(g))}


# Each sweep and probe runs in the traced run of the workload that exercises
# its route, so no traced run pays for all of them.
BY_WORKLOAD = {
    "cli-matrix": ([], []),
    "tutte-br": (
        [k for k in SWEEPS if k.startswith(("frontier.tutte", "frontier.ztutte", "frontier.br"))],
        [probe_w6_tutte],
    ),
    "symanzik-moyal": (
        [k for k in SWEEPS if k.startswith(("frontier.u.", "frontier.nc_u"))],
        [probe_k6_u, probe_ladder4_udet],
    ),
    "hopf-bphz": (
        ["frontier.hopf.coproduct", "frontier.canonical_form"],
        [probe_c7_hopf, probe_canonical_forms],
    ),
}

PROBE_NAMES = (
    "probe.k6_u_trees_s",
    "probe.k6_u_sum_s",
    "probe.c7_coproduct_s",
    "probe.c7_hopf_axioms_s",
    "probe.c8_canonical_form_s",
    "probe.c9_canonical_form_s",
    "probe.w6_tutte_subset_s",
    "probe.w6_tutte_delcon_s",
    "probe.ladder4_udet_s",
)


def frontier_metrics(workload: str | None) -> dict[str, float]:
    """Every frontier.* and probe.* metric; 0 for those another workload (or None) measures."""
    out = {name: 0 for name in SWEEPS}
    out.update({name: 0.0 for name in PROBE_NAMES})
    sweeps, probes = BY_WORKLOAD.get(workload, ([], []))
    for name in sweeps:
        build, compute, start = SWEEPS[name]
        out[name] = sweep(build, compute, start)
    for probe in probes:
        out.update(probe())
    return out
