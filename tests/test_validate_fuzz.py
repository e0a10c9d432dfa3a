"""Tests for the differential fuzzer: determinism, coverage, self-test."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.formats.triangular import is_lower_triangular, is_upper_triangular
from repro.validate.fuzz import (
    BROKEN_METHOD,
    FAMILIES,
    FuzzCase,
    broken_solver,
    engine_rule_self_test,
    minimize_failure,
    run_case,
    run_fuzz,
    sample_case,
    single_precision_engines,
)


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_builders_emit_lower_triangular(self, family):
        rng = np.random.default_rng(42)
        L = FAMILIES[family](rng, 50)
        assert L.n_rows == L.n_cols
        assert is_lower_triangular(L)
        assert np.all(L.diagonal() != 0)

    def test_hypersparse_family_is_hypersparse(self):
        # The family exists to drive the DCSR path: nnz per row must be
        # far below the matrix dimension.
        rng = np.random.default_rng(0)
        L = FAMILIES["hypersparse"](rng, 200)
        assert L.nnz / L.n_rows < 10


class TestFuzzCase:
    def test_build_is_deterministic(self):
        case = FuzzCase(family="uniform", seed=7, size=40)
        A1, b1 = case.build()
        A2, b2 = case.build()
        assert np.array_equal(A1.to_dense(), A2.to_dense())
        assert np.array_equal(b1, b2)

    def test_upper_flag_mirrors(self):
        case = FuzzCase(family="banded", seed=3, size=30, upper=True)
        A, _ = case.build()
        assert is_upper_triangular(A.sort_indices())

    def test_multi_rhs_and_int_dtype(self):
        case = FuzzCase(family="chain", seed=5, size=25, n_rhs=3, b_dtype="int32")
        _, b = case.build()
        assert b.shape == (25, 3) and b.dtype == np.int32

    def test_token_round_trip(self):
        case = FuzzCase(
            family="grid2d", seed=11, size=64, upper=True, n_rhs=2, b_dtype="int64"
        )
        assert FuzzCase.from_token(case.token()) == case

    def test_token_carries_scheduler_and_sync(self):
        case = FuzzCase(
            family="banded", seed=9, size=40,
            scheduler="superstep", sync="barrier",
        )
        token = case.token()
        assert token.endswith(":superstep:barrier")
        assert FuzzCase.from_token(token) == case

    def test_legacy_six_field_token_defaults_scheduler(self):
        # pre-1.3 tokens (no scheduler/sync fields) still replay, under
        # the historical eft/p2p defaults
        case = FuzzCase.from_token("uniform:1:10:L:1:float64")
        assert case.scheduler == "eft" and case.sync == "p2p"

    @pytest.mark.parametrize(
        "token",
        [
            "nonsense",
            "nofamily:1:10:L:1:float64",
            "uniform:1:10:X:1:float64",
            "uniform:1:10:L:1:notadtype",
            "uniform:1:10:L:1:float64:notasched:p2p",
            "uniform:1:10:L:1:float64:eft:notasync",
            "uniform:1:10:L:1:float64:eft",
        ],
    )
    def test_bad_tokens_rejected(self, token):
        with pytest.raises(ValueError):
            FuzzCase.from_token(token)

    def test_sampler_covers_variants(self):
        fams = list(FAMILIES)
        cases = [sample_case(0, r, fams, 100) for r in range(24)]
        assert {c.family for c in cases} == set(fams)
        assert any(c.upper for c in cases)
        assert any(c.n_rhs > 1 for c in cases)
        assert any(np.dtype(c.b_dtype).kind == "i" for c in cases)
        # Same (seed, round) -> same case.
        assert cases[5] == sample_case(0, 5, fams, 100)
        assert cases[5] != sample_case(1, 5, fams, 100)

    def test_sampler_covers_scheduler_sync_axis(self):
        from repro.dist import SYNC_MODES, available_schedulers

        fams = list(FAMILIES)
        cases = [sample_case(3, r, fams, 100) for r in range(60)]
        assert {c.scheduler for c in cases} == set(available_schedulers())
        assert {c.sync for c in cases} == set(SYNC_MODES)


class TestRunFuzz:
    def test_clean_run_all_methods(self):
        report = run_fuzz(rounds=12, seed=0, base_size=60, include_service=True)
        assert report.ok, report.render()
        assert report.n_cases == 12
        assert report.n_checks > 12
        assert "all methods agree" in report.render()

    def test_broken_solver_is_caught_and_minimized(self):
        with broken_solver() as name:
            report = run_fuzz(
                rounds=4,
                seed=0,
                methods=[name],
                base_size=80,
                include_service=False,
            )
        assert not report.ok
        f = report.failures[0]
        assert f.method == BROKEN_METHOD and f.kind == "mismatch"
        # Minimization shrank the case and kept it failing.
        assert f.minimized is not None
        assert f.minimized.size <= f.case.size
        assert f.minimized.size <= 10
        # The reproduction command is paste-ready and carries the token.
        assert f.minimized.token() in f.repro_command
        assert "-m repro fuzz --replay" in f.repro_command
        assert f.repro_command in report.render()

    def test_minimize_drops_rhs_and_mirror(self):
        with broken_solver() as name:
            case = FuzzCase(
                family="uniform", seed=2, size=64, upper=True, n_rhs=3
            )
            failures = run_case(case, [name])
            assert failures
            small = minimize_failure(failures[0])
        assert small.n_rhs == 1 and not small.upper
        assert small.size <= 16

    def test_early_stop_on_max_failures(self):
        with broken_solver() as name:
            report = run_fuzz(
                rounds=50,
                seed=0,
                methods=[name],
                include_service=False,
                minimize=False,
                max_failures=3,
            )
        assert len(report.failures) >= 3
        assert report.n_cases < 50

    def test_unknown_inputs_rejected(self):
        with pytest.raises(ValueError):
            run_fuzz(rounds=1, families=["galaxy"])
        with pytest.raises(ValueError):
            run_fuzz(rounds=1, methods=["warp-drive"])


class TestFuzzCli:
    def test_cli_clean_run_exits_zero(self, capsys):
        rc = cli_main(["fuzz", "--rounds", "6", "--seed", "0", "--size", "50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all methods agree" in out

    def test_cli_self_test_exits_zero(self, capsys):
        rc = cli_main(["fuzz", "--self-test", "--rounds", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "self-test OK" in out
        assert "--replay" in out  # reproduction commands printed
        assert "engine-rule [compiled]" in out
        assert "catches an engine rule that trusts single precision" in out

    def test_cli_replay_good_case(self, capsys):
        rc = cli_main(
            ["fuzz", "--replay", "chain:2:12:L:1:int64", "--methods", "syncfree"]
        )
        assert rc == 0
        assert "agree" in capsys.readouterr().out

    def test_cli_replay_detects_broken_method(self, capsys):
        with broken_solver() as name:
            rc = cli_main(
                ["fuzz", "--replay", "uniform:1:16:L:1:float64", "--methods", name]
            )
        out = capsys.readouterr().out
        assert rc == 1
        assert "mismatch" in out and "reproduce:" in out

    def test_cli_bad_replay_token_errors(self):
        with pytest.raises(SystemExit):
            cli_main(["fuzz", "--replay", "not-a-token"])


class TestStoreArm:
    """The ``via="store"`` arm: persist, then answer from a fresh service
    that loads the entry instead of planning."""

    CASES = [
        FuzzCase("hypersparse", 2, 70),               # seed 2: 1 device
        FuzzCase("chain", 3, 50, upper=True),         # seed 3: 3 devices
        FuzzCase("grid2d", 5, 64, n_rhs=3, b_dtype="int32"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.token())
    @pytest.mark.parametrize("method", ["levelset", "recursive-block"])
    def test_arm_passes(self, case, method):
        failures = run_case(
            case, [method], check_compiled=False, check_dist=False,
            check_fused=False, check_mutation=False,
        )
        assert not failures, [f.describe() for f in failures]

    def test_a_store_that_never_loads_is_caught_minimized_and_replayed(
        self, monkeypatch
    ):
        from repro.serve.service import SolveService

        monkeypatch.setattr(SolveService, "_load_pattern",
                            lambda self, *args: None)
        case = FuzzCase("uniform", 4, 64, upper=True, n_rhs=3)
        failures = run_case(case, ["levelset"])
        assert failures and {f.via for f in failures} == {"store"}
        assert "built 1 pattern(s)" in failures[0].message
        small = minimize_failure(failures[0])
        assert small.size <= 16 and small.n_rhs == 1 and not small.upper
        assert run_case(FuzzCase.from_token(small.token()), ["levelset"],
                        check_compiled=False, check_dist=False,
                        check_fused=False, check_mutation=False)


class TestEngineRuleCheck:
    """The compiled arm holds the executor's engine rule (float64 values
    and work buffer, finite engine values) to the accuracy probe."""

    @pytest.mark.parametrize("b_dtype", ["float64", "float32", "int64"])
    @pytest.mark.parametrize("family", ["uniform", "chain", "ilu"])
    def test_the_rule_agrees_with_the_probe(self, family, b_dtype):
        case = FuzzCase(family=family, seed=3, size=90, b_dtype=b_dtype)
        failures = run_case(
            case, ["levelset", "recursive-block"], check_dist=False,
            check_fused=False, check_mutation=False, check_store=False,
        )
        assert failures == []

    def test_a_rule_that_trusts_float32_is_caught_minimized_and_replayed(
        self,
    ):
        report = engine_rule_self_test(rounds=3, seed=0)
        assert report.failures
        assert {f.kind for f in report.failures} == {"engine-rule"}
        for f in report.failures:
            assert f.via == "compiled"
            small = f.minimized
            assert small is not None and small.b_dtype == "float32"
            assert small.size <= f.case.size
            replayed = FuzzCase.from_token(small.token())
            assert run_case(replayed, [f.method], check_dist=False,
                            check_fused=False, check_mutation=False,
                            check_store=False) == []
            with single_precision_engines():
                again = run_case(replayed, [f.method], check_dist=False,
                                 check_fused=False, check_mutation=False,
                                 check_store=False)
            assert [g.kind for g in again] == ["engine-rule"]
