"""Mutation tests: re-introduce each fixed bug, assert validate catches it.

Each test monkeypatches one historical bug back into the model behind
the module attribute the validation probes call through, runs the same
probe pass ``repro-stencil validate`` runs, and asserts the violation
naming that invariant appears.  This is the proof that the validation
pass catches *real* bugs, not hypothetical ones — every mutation here
shipped in this repository at some point.
"""

import dataclasses

import pytest

from repro import dsl, gpu, validate
from repro.dsl.analysis import FP64_BYTES
from repro.errors import ValidationError
from repro.gpu import timing, traffic
from repro.harness import experiments
from repro.metrics import speedup
from repro.util import prod
from repro.validate import invariants as inv_mod


def probe_violations():
    violations, _ = inv_mod.run_probes()
    return violations


def names(violations):
    return {v.invariant for v in violations}


class TestShuffleVendorMutation:
    def test_bare_keyerror_lookup_is_flagged(self, monkeypatch):
        # The original bug: SHUFFLE_CYCLES[vendor] with no error contract.
        monkeypatch.setattr(
            timing, "shuffle_cycles_for",
            lambda vendor: timing.SHUFFLE_CYCLES[vendor],
        )
        violations = probe_violations()
        assert "unknown-vendor-error-contract" in names(violations)

    def test_wrong_exception_type_is_flagged(self, monkeypatch):
        def wrong(vendor):
            raise LookupError(f"no such vendor {vendor}")

        monkeypatch.setattr(timing, "shuffle_cycles_for", wrong)
        assert "unknown-vendor-error-contract" in names(probe_violations())


class TestLayerConditionMutation:
    def test_hardcoded_2r_reread_is_flagged(self, monkeypatch):
        # The original bug: re-read volume used 2r for both layouts even
        # though bricks only share the r boundary planes.
        def buggy(stencil, layout, tile_k, domain, llc_effective_bytes):
            ni, nj, _ = domain
            r = stencil.radius
            shared_planes = 2 * r if layout == "array" else r
            working_set = ni * nj * shared_planes * FP64_BYTES
            if working_set <= llc_effective_bytes:
                return 0.0
            miss_fraction = (working_set - llc_effective_bytes) / working_set
            n = prod(domain)
            return miss_fraction * (2 * r / tile_k) * n * FP64_BYTES

        monkeypatch.setattr(traffic, "layer_condition_extra", buggy)
        violations = probe_violations()
        assert "brick-reread-proportional-to-shared-planes" in names(violations)


class TestSpeedupBandMutation:
    def test_three_band_partition_is_flagged(self, monkeypatch):
        # The original bug: three bands where the paper annotates four.
        def buggy_band(self):
            s = self.potential_speedup
            if s <= 2.0:
                return "<=2x"
            if s <= 4.0:
                return "<=4x"
            return ">4x"

        monkeypatch.setattr(speedup.SpeedupPoint, "band", buggy_band)
        violations = probe_violations()
        assert "speedup-band-partition" in names(violations)

    def test_truncated_bands_tuple_is_flagged(self, monkeypatch):
        monkeypatch.setattr(speedup, "BANDS", ("<=2x", "<=4x", ">4x"))
        assert "speedup-band-partition" in names(probe_violations())


class TestResumeMutation:
    def test_memo_replaying_failures_is_flagged(self, monkeypatch):
        # The original bug: cached_study served a memoised *degraded*
        # study on resume=True, so checkpointed FailedPoints were
        # replayed as permanent instead of re-attempted.
        real_run_study = experiments.run_study

        def buggy_cached_study(
            config=None, parallel=None, cache_dir=None, *,
            retry_policy=None, fault_plan=None, resume=False,
        ):
            from repro.harness import serialization

            config = config or experiments.ExperimentConfig()
            cache_dir = experiments.resolve_cache_dir(cache_dir)
            if config not in experiments._STUDY_CACHE:
                study = None
                if cache_dir:
                    study = serialization.load_study_cache(config, cache_dir)
                if study is None:
                    study = real_run_study(
                        config, parallel=parallel, policy=retry_policy,
                        fault_plan=fault_plan, cache_dir=cache_dir,
                        resume=resume,
                    )
                experiments._STUDY_CACHE[config] = study
            return experiments._STUDY_CACHE[config]

        monkeypatch.setattr(experiments, "cached_study", buggy_cached_study)
        violations = probe_violations()
        assert "resume-reattempts-failures" in names(violations)
        flagged = [
            v for v in violations
            if v.invariant == "resume-reattempts-failures"
        ]
        assert any("replayed" in v.message for v in flagged)


class TestResultInvariantMutations:
    """Result-level invariants catch model breakage through the
    opt-in ``check_invariants=`` hook of ``simulate``."""

    def sim(self, **kw):
        return gpu.simulate(
            dsl.by_name("13pt").build(), "bricks_codegen",
            gpu.platform("A100", "CUDA"), stencil_name="13pt", **kw
        )

    def test_occupancy_above_one_is_flagged(self, monkeypatch):
        monkeypatch.setattr(timing, "occupancy_factor", lambda r, b: 1.5)
        with pytest.raises(ValidationError) as exc:
            self.sim(check_invariants=True)
        assert "occupancy-is-a-fraction" in str(exc.value)

    def test_negative_shuffle_cost_is_flagged(self, monkeypatch):
        monkeypatch.setattr(timing, "shuffle_cycles_for", lambda vendor: -1.0)
        with pytest.raises(ValidationError) as exc:
            self.sim(check_invariants=True)
        assert "timing-terms-physical" in str(exc.value)

    def test_lost_compulsory_traffic_is_flagged(self, monkeypatch):
        monkeypatch.setattr(
            traffic, "layer_condition_extra",
            lambda *a, **k: -2.0e9,  # "negative re-reads" sink the total
        )
        with pytest.raises(ValidationError) as exc:
            self.sim(check_invariants=True)
        text = str(exc.value)
        assert "hbm-at-least-compulsory" in text
        assert "reuse-miss-bytes-sane" in text


class TestPaperClaimMutation:
    """A ✓ in EXPERIMENTS.md is computed: break the study, the mark flips."""

    def test_halved_a100_cuda_bricks_flips_table3(self):
        from repro.results.report import experiments_md

        study = experiments.run_study()
        key = ("13pt", "A100-CUDA", "bricks_codegen")
        res = study.results[key]
        t = res.timing
        slow = dataclasses.replace(res, timing=dataclasses.replace(
            t, t_hbm=2 * t.t_hbm, t_l1=2 * t.t_l1, t_fp=2 * t.t_fp,
            t_shuffle=2 * t.t_shuffle, t_issue=2 * t.t_issue,
            launch_overhead=2 * t.launch_overhead,
        ))
        assert slow.gflops == pytest.approx(res.gflops / 2)
        mutated = dataclasses.replace(
            study, results={**study.results, key: slow}
        )

        report = validate.validate_study(mutated, golden_path=None, probes=False)
        assert "table3-stencil-p" in names(report.violations)
        assert "table3-stencil-p" not in names(
            validate.validate_study(study, golden_path=None, probes=False).violations
        )
        doc = experiments_md(mutated)
        flipped = [
            line for line in doc.splitlines()
            if line.startswith("- `table3-stencil-p`:")
        ]
        assert flipped and all(line.endswith("✗") for line in flipped)
        assert "Claims outside their band:" in doc


class TestHealthyBaseline:
    def test_no_mutation_means_no_violations(self):
        """Guards the mutation tests themselves: the probe pass must be
        clean without a mutation, or the assertions above prove nothing."""
        violations, count = inv_mod.run_probes()
        assert violations == []
        assert count >= 7
        assert validate.check_result(
            gpu.simulate(
                dsl.by_name("13pt").build(), "bricks_codegen",
                gpu.platform("A100", "CUDA"), stencil_name="13pt",
            )
        ) == []
