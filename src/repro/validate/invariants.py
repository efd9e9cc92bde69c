"""Registry of physical-sanity invariants over simulation results.

Three kinds of invariant, all registered through the :func:`invariant`
decorator and all reporting structured :class:`Violation` rows:

* ``result`` — checked against every simulated matrix point: traffic
  lower bounds (HBM can never beat compulsory bytes), sign and range
  constraints on the timing breakdown, occupancy as a fraction, sector
  accounting, measured AI bounded by the theoretical AI;
* ``study`` — checked once per completed sweep: Pennycook's P never
  exceeds the worst per-platform efficiency, and HBM traffic / shuffle
  time are non-decreasing in stencil radius across the star family at a
  fixed (platform, variant);
* ``probe`` — self-contained model-contract checks that exercise the
  models directly rather than inspecting results: the unknown-vendor
  error contract of the shuffle-cost table, the shared-plane
  proportionality of the layer-condition model, the four-band partition
  of the potential-speed-up plane, and checkpoint-resume re-attempting
  failed points.  The oracle cross-checks in :mod:`repro.validate.oracle`
  register here too.

Every probe reaches the model under test through its *module attribute*
(``timing.shuffle_cycles_for``, ``traffic.layer_condition_extra``,
``experiments.cached_study``, ...), so the mutation tests can
re-introduce a historical bug with a single ``monkeypatch.setattr`` and
assert that the validation pass flags it by name.

A check that itself crashes is reported as a violation of that
invariant (point ``<internal>``), never silently swallowed: a broken
checker is indistinguishable from a broken model until a human looks.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

from repro.dsl import analysis, shapes
from repro.gpu import timing, traffic
from repro.gpu.simulator import SimulationResult
from repro.harness import experiments
from repro.harness.experiments import StudyResults
from repro.metrics import efficiency, pennycook, speedup
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy

#: Relative slack for floating-point identity/inequality comparisons.
REL_EPS = 1e-9

#: The star family in radius order (Table 2); drives the monotonicity
#: sweeps.  Radii are looked up from the catalog, not assumed.
STAR_FAMILY: Tuple[str, ...] = ("7pt", "13pt", "19pt", "25pt")


@dataclass(frozen=True)
class Violation:
    """One invariant violated at one point of the evaluation matrix."""

    invariant: str
    point: str  # "stencil/platform/variant", a probe name, or "<study>"
    message: str


@dataclass(frozen=True)
class Invariant:
    """A registered check: a named claim the model must satisfy."""

    name: str
    kind: str  # "result" | "study" | "probe"
    description: str
    fn: Callable[..., Iterable[str]]


_REGISTRY: Dict[str, Invariant] = {}

KINDS = ("result", "study", "probe")


def invariant(
    name: str, kind: str, description: str
) -> Callable[[Callable[..., Iterable[str]]], Callable[..., Iterable[str]]]:
    """Register ``fn`` as the named invariant of the given kind.

    ``result`` checkers take a :class:`SimulationResult`, ``study``
    checkers a :class:`StudyResults`, probes take nothing.  All yield
    human-readable violation messages (empty = the invariant holds).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown invariant kind {kind!r}; known: {KINDS}")

    def register(fn: Callable[..., Iterable[str]]) -> Callable[..., Iterable[str]]:
        _REGISTRY[name] = Invariant(
            name=name, kind=kind, description=description, fn=fn
        )
        return fn

    return register


def registered(kind: str | None = None) -> Tuple[Invariant, ...]:
    """All registered invariants (optionally of one kind), stable order."""
    return tuple(
        inv for inv in _REGISTRY.values() if kind is None or inv.kind == kind
    )


def _run(inv: Invariant, point: str, *args: object) -> List[Violation]:
    """Run one checker; its own crash is a violation, not an escape."""
    try:
        return [Violation(inv.name, point, msg) for msg in inv.fn(*args)]
    except Exception as exc:  # noqa: BLE001 - a broken checker must surface
        return [
            Violation(inv.name, "<internal>", f"invariant check crashed: {exc!r}")
        ]


def check_result(result: SimulationResult) -> List[Violation]:
    """Run every ``result`` invariant against one simulated point."""
    point = f"{result.stencil_name}/{result.platform.name}/{result.variant}"
    out: List[Violation] = []
    for inv in registered("result"):
        out.extend(_run(inv, point, result))
    return out


def check_study(study: StudyResults) -> List[Violation]:
    """Run result invariants over every point, then study invariants."""
    out: List[Violation] = []
    for key in sorted(study.results):
        out.extend(check_result(study.results[key]))
    for inv in registered("study"):
        out.extend(_run(inv, "<study>", study))
    return out


def run_probes() -> Tuple[List[Violation], int]:
    """Run every registered probe; returns (violations, probes run)."""
    out: List[Violation] = []
    probes = registered("probe")
    for inv in probes:
        out.extend(_run(inv, f"<probe:{inv.name}>"))
    return out, len(probes)


# ---------------------------------------------------------------------------
# Result invariants
# ---------------------------------------------------------------------------


@invariant(
    "hbm-at-least-compulsory",
    "result",
    "HBM traffic can never beat the compulsory read+write of the domain",
)
def _hbm_at_least_compulsory(r: SimulationResult) -> Iterable[str]:
    n = 1
    for e in r.domain:
        n *= e
    min_read = n * analysis.FP64_BYTES  # interior input read once
    min_write = n * analysis.FP64_BYTES  # every output written once
    t = r.traffic
    if t.hbm_read_bytes < min_read * (1 - REL_EPS):
        yield (
            f"hbm_read_bytes {t.hbm_read_bytes:.3e} < compulsory read "
            f"{min_read:.3e}"
        )
    if t.hbm_write_bytes < min_write * (1 - REL_EPS):
        yield (
            f"hbm_write_bytes {t.hbm_write_bytes:.3e} < compulsory write "
            f"{min_write:.3e}"
        )
    compulsory = analysis.compulsory_bytes(r.domain)
    if t.hbm_total_bytes < compulsory * (1 - REL_EPS):
        yield (
            f"hbm_total_bytes {t.hbm_total_bytes:.3e} < compulsory total "
            f"{compulsory:.3e}"
        )


@invariant(
    "reuse-miss-bytes-sane",
    "result",
    "layer-condition re-reads are non-negative and inside the read total",
)
def _reuse_miss_bytes_sane(r: SimulationResult) -> Iterable[str]:
    t = r.traffic
    if t.reuse_miss_bytes < 0:
        yield f"reuse_miss_bytes is negative: {t.reuse_miss_bytes:.3e}"
    elif t.hbm_read_bytes < t.reuse_miss_bytes * (1 - REL_EPS):
        yield (
            f"reuse_miss_bytes {t.reuse_miss_bytes:.3e} exceeds "
            f"hbm_read_bytes {t.hbm_read_bytes:.3e}"
        )


@invariant(
    "timing-terms-physical",
    "result",
    "stream times are strictly positive, serial terms non-negative, "
    "total covers every component",
)
def _timing_terms_physical(r: SimulationResult) -> Iterable[str]:
    tm = r.timing
    for name, value in (("t_hbm", tm.t_hbm), ("t_l1", tm.t_l1), ("t_fp", tm.t_fp)):
        if not value > 0:
            yield f"{name} must be strictly positive, got {value!r}"
    for name, value in (
        ("t_shuffle", tm.t_shuffle),  # naive variants issue zero shuffles
        ("t_issue", tm.t_issue),
        ("launch_overhead", tm.launch_overhead),
    ):
        if not value >= 0:
            yield f"{name} must be non-negative, got {value!r}"
    floor = max(tm.t_hbm, tm.t_l1, tm.t_fp)
    if tm.total < floor * (1 - REL_EPS):
        yield f"total {tm.total:.3e} below its slowest stream {floor:.3e}"


@invariant(
    "occupancy-is-a-fraction",
    "result",
    "the register-pressure occupancy factor lies in (0, 1]",
)
def _occupancy_is_a_fraction(r: SimulationResult) -> Iterable[str]:
    occ = r.timing.occupancy
    if not (0.0 < occ <= 1.0):
        yield f"occupancy {occ!r} outside (0, 1]"


@invariant(
    "sector-accounting-consistent",
    "result",
    "L1 bytes equal sectors times the sector size, sectors non-negative",
)
def _sector_accounting_consistent(r: SimulationResult) -> Iterable[str]:
    t = r.traffic
    if t.load_sectors <= 0:
        yield f"load_sectors must be positive, got {t.load_sectors!r}"
    if t.store_sectors <= 0:
        yield f"store_sectors must be positive, got {t.store_sectors!r}"
    expect = (t.load_sectors + t.store_sectors) * r.platform.arch.sector_bytes
    if abs(t.l1_bytes - expect) > max(1.0, expect) * 1e-6:
        yield (
            f"l1_bytes {t.l1_bytes:.3e} != sectors * sector_bytes "
            f"{expect:.3e}"
        )


@invariant(
    "measured-ai-below-theoretical",
    "result",
    "measured AI cannot beat the compulsory-traffic AI of Table 4",
)
def _measured_ai_below_theoretical(r: SimulationResult) -> Iterable[str]:
    try:
        stencil = shapes.by_name(r.stencil_name).build()
    except Exception:
        return  # ad-hoc stencil outside the Table 2 catalog: no bound known
    ceiling = analysis.theoretical_ai(stencil)
    if r.arithmetic_intensity > ceiling * (1 + REL_EPS):
        yield (
            f"measured AI {r.arithmetic_intensity:.4f} exceeds theoretical "
            f"AI {ceiling:.4f}"
        )


# ---------------------------------------------------------------------------
# Study invariants
# ---------------------------------------------------------------------------


@invariant(
    "pennycook-pinched-by-efficiencies",
    "study",
    "harmonic-mean P lies between the worst per-platform efficiency and "
    "the arithmetic mean of the efficiencies",
)
def _pennycook_pinched_by_efficiencies(study: StudyResults) -> Iterable[str]:
    """The harmonic mean is pinched: min(e_i) <= P <= mean(e_i).

    This is the precise form of "P is dominated by the worst platform":
    the harmonic mean sits *above* the minimum but *below* the
    arithmetic mean, pulled toward the worst efficiency.  (The issue
    text's shorthand ``P <= min(e_i)`` is not a property any mean has;
    the two-sided pinch is the crisp invariant that catches swapping
    the harmonic mean for an arithmetic/geometric one or for a bare
    min/max.)
    """
    platforms = study.platform_names()
    variant = "bricks_codegen"
    if variant not in study.config.variants:
        return
    for name in study.config.stencils:
        stencil = study.stencil_of(name)
        effs: List[float] = []
        for pname in platforms:
            if not study.has(name, pname, variant):
                break
            r = study.get(name, pname, variant)
            effs.append(efficiency.fraction_of_roofline(r))
            effs.append(efficiency.fraction_of_theoretical_ai(r, stencil))
        else:
            roof = {p: effs[2 * i] for i, p in enumerate(platforms)}
            ai = {p: effs[2 * i + 1] for i, p in enumerate(platforms)}
            for label, table in (("roofline", roof), ("theoretical-AI", ai)):
                p_metric = pennycook.performance_portability(table)
                worst = min(table.values())
                mean = sum(table.values()) / len(table)
                if p_metric < worst * (1 - REL_EPS):
                    yield (
                        f"{name} {label}: P {p_metric:.4f} below the worst "
                        f"platform efficiency {worst:.4f}"
                    )
                if p_metric > mean * (1 + REL_EPS):
                    yield (
                        f"{name} {label}: P {p_metric:.4f} exceeds the "
                        f"arithmetic-mean efficiency {mean:.4f}"
                    )
                if not p_metric > 0:
                    yield f"{name} {label}: P {p_metric!r} not positive"


@invariant(
    "hbm-monotone-in-radius",
    "study",
    "HBM traffic is non-decreasing in stencil radius at fixed tile",
)
def _hbm_monotone_in_radius(study: StudyResults) -> Iterable[str]:
    yield from _radius_sweep(study, "hbm_total_bytes",
                             lambda r: r.traffic.hbm_total_bytes)


@invariant(
    "shuffle-time-monotone-in-radius",
    "study",
    "exposed shuffle time is non-decreasing in stencil radius",
)
def _shuffle_monotone_in_radius(study: StudyResults) -> Iterable[str]:
    yield from _radius_sweep(study, "t_shuffle", lambda r: r.timing.t_shuffle)


def _radius_sweep(
    study: StudyResults,
    label: str,
    value: Callable[[SimulationResult], float],
) -> Iterable[str]:
    """Check ``value`` is non-decreasing over the star family."""
    stars = [n for n in STAR_FAMILY if n in study.config.stencils]
    radii = {n: shapes.by_name(n).build().radius for n in stars}
    stars.sort(key=lambda n: radii[n])
    if len(stars) < 2:
        return
    for pname in study.platform_names():
        for variant in study.config.variants:
            series = [
                (n, value(study.get(n, pname, variant)))
                for n in stars
                if study.has(n, pname, variant)
            ]
            for (n0, v0), (n1, v1) in zip(series, series[1:]):
                if v1 < v0 * (1 - REL_EPS):
                    yield (
                        f"{pname}/{variant}: {label} fell from "
                        f"{v0:.4e} ({n0}, r={radii[n0]}) to "
                        f"{v1:.4e} ({n1}, r={radii[n1]})"
                    )


# ---------------------------------------------------------------------------
# Model-contract probes
# ---------------------------------------------------------------------------


@invariant(
    "unknown-vendor-error-contract",
    "probe",
    "unknown vendors get a SimulationError naming the known vendors, "
    "never a bare KeyError",
)
def _unknown_vendor_error_contract() -> Iterable[str]:
    from repro.errors import SimulationError

    vendor = "NoSuchVendor"
    try:
        got = timing.shuffle_cycles_for(vendor)
    except SimulationError as exc:
        text = str(exc)
        if vendor not in text or "NVIDIA" not in text:
            yield (
                "SimulationError for an unknown vendor must name the "
                f"vendor and the known vendors, got: {text!r}"
            )
    except KeyError:
        yield (
            "shuffle_cycles_for leaked a bare KeyError for an unknown "
            "vendor instead of raising SimulationError"
        )
    else:
        yield f"unknown vendor {vendor!r} returned {got!r} instead of raising"
    for vendor in sorted(timing.SHUFFLE_CYCLES):
        if timing.shuffle_cycles_for(vendor) != timing.SHUFFLE_CYCLES[vendor]:
            yield f"known vendor {vendor!r} does not round-trip the table"


@invariant(
    "brick-reread-proportional-to-shared-planes",
    "probe",
    "deep-miss layer-condition re-reads scale with the planes actually "
    "shared: brick re-reads exactly half of array at equal radius",
)
def _brick_reread_proportional() -> Iterable[str]:
    domain = (64, 64, 64)  # (ni, nj, nk)
    tile_k = 4
    for radius in (1, 2, 4):
        stencil = shapes.star(radius)
        # Deep-miss limit: zero effective LLC, miss fraction 1 for both
        # layouts, so only the shared-plane count differentiates them.
        arr = traffic.layer_condition_extra(stencil, "array", tile_k, domain, 0.0)
        brk = traffic.layer_condition_extra(stencil, "brick", tile_k, domain, 0.0)
        if arr <= 0 or brk <= 0:
            yield (
                f"r={radius}: deep-miss extras must be positive, got "
                f"array={arr!r} brick={brk!r}"
            )
            continue
        if abs(brk - arr / 2) > arr * REL_EPS:
            yield (
                f"r={radius}: brick deep-miss extra {brk:.4e} is not half "
                f"the array extra {arr:.4e} (shared planes r vs 2r)"
            )
        # Threshold separation: a cache holding r planes but not 2r
        # satisfies the brick layer condition and fails the array one.
        ws_brick = 64 * 64 * radius * analysis.FP64_BYTES
        between = ws_brick * 1.5
        arr_mid = traffic.layer_condition_extra(
            stencil, "array", tile_k, domain, between
        )
        brk_mid = traffic.layer_condition_extra(
            stencil, "brick", tile_k, domain, between
        )
        if brk_mid != 0.0:
            yield (
                f"r={radius}: brick re-reads {brk_mid:.4e} bytes with its "
                f"shared rows resident (LLC {between:.3e})"
            )
        if arr_mid <= 0.0:
            yield (
                f"r={radius}: array layout shares 2r planes but reports no "
                f"re-reads at LLC {between:.3e}"
            )


@invariant(
    "speedup-band-partition",
    "probe",
    "the potential-speed-up plane partitions into the paper's four "
    "iso-bands: 1x, 1x-2x, 2x-4x, >4x",
)
def _speedup_band_partition() -> Iterable[str]:
    expected = ("1x", "1x-2x", "2x-4x", ">4x")
    if tuple(speedup.BANDS) != expected:
        yield f"BANDS is {tuple(speedup.BANDS)!r}, expected {expected!r}"
        return
    # One representative per band, by construction: s = 1 / (x * y).
    cases = {0.8: "1x", 1.0: "1x", 1.5: "1x-2x", 2.0: "1x-2x",
             3.0: "2x-4x", 4.0: "2x-4x", 8.0: ">4x"}
    points = []
    for s, want in sorted(cases.items()):
        p = speedup.SpeedupPoint(f"s={s}", ai_fraction=1.0,
                                 roofline_fraction=1.0 / s)
        points.append(p)
        got = p.band()
        if got != want:
            yield f"speed-up {s} banded as {got!r}, expected {want!r}"
    summary = speedup.summarize(points)
    if tuple(summary["bands"]) != expected:
        yield (
            f"summarize() bands keyed {tuple(summary['bands'])!r}, "
            f"expected {expected!r}"
        )
    elif sum(summary["bands"].values()) != len(points):
        yield "summarize() band counts do not partition the points"


@invariant(
    "resume-reattempts-failures",
    "probe",
    "a failed matrix point in a checkpoint is re-attempted on resume, "
    "never replayed as a permanent failure",
)
def _resume_reattempts_failures() -> Iterable[str]:
    cfg = experiments.ExperimentConfig(
        stencils=("7pt",),
        variants=("array",),
        domain=(64, 64, 64),
        platform_filter=("A100-CUDA",),
    )
    key = ("7pt", "A100-CUDA", "array")
    # Every attempt of the single point fails: a permanently degraded
    # sweep whose checkpoint and memo entry both record the FailedPoint.
    plan = FaultPlan(faults=((key, FaultSpec("raise", failures=-1)),))
    policy = RetryPolicy(retries=1, backoff_s=0.0)
    experiments._STUDY_CACHE.pop(cfg, None)  # fresh memo for the probe
    try:
        with tempfile.TemporaryDirectory(prefix="repro-validate-") as tmp:
            degraded = experiments.cached_study(
                cfg, cache_dir=tmp,
                retry_policy=policy, fault_plan=plan,
            )
            if degraded.complete or key not in degraded.failed:
                yield (
                    "fault injection failed to produce a degraded study; "
                    "the probe cannot exercise resume"
                )
                return
            resumed = experiments.cached_study(
                cfg, cache_dir=tmp, resume=True,
            )
            if not resumed.complete:
                fp = resumed.failed.get(key)
                detail = fp.describe() if fp is not None else "point missing"
                yield (
                    "resume replayed a checkpointed failure as permanent "
                    f"instead of re-attempting it: {detail}"
                )
            elif not resumed.has(*key):
                yield "resumed study is complete but lacks the failed point"
    finally:
        experiments._STUDY_CACHE.pop(cfg, None)
