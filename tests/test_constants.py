"""Scale hierarchy: ladder shape, refinement rederivation, and rejection rules."""

from dataclasses import replace
from fractions import Fraction

import pytest

from equitiler.constants import default_constants

F = Fraction


class TestDefaults:
    def test_ladder_shape_r3(self):
        cfg = default_constants(3)
        assert cfg.gammas == (F(1, 3000), F(1, 300), F(1, 30), F(1, 3))
        assert cfg.gamma == F(1, 30000)

    def test_ladder_ends_at_reciprocal(self):
        for r in (2, 3, 4, 5):
            cfg = default_constants(r)
            assert len(cfg.gammas) == r + 1
            assert cfg.gammas[-1] == F(1, r)

    def test_r_floor(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                default_constants(1)

    def test_built_once_per_r(self):
        # Shared by every caller, so nothing derived from it may alter it.
        cfg = default_constants(3)
        assert default_constants(3) is cfg
        assert default_constants(4) is not cfg
        assert cfg.for_s(2) is not cfg
        assert replace(cfg, xi=F(1, 4)) is not cfg
        assert cfg == default_constants.__wrapped__(3)


class TestRefinement:
    def test_tight_gap_doubles(self):
        # Rung gap under 1000x: scales sit at 2x, 4x, 8x the lower rung.
        cfg = default_constants(3).for_s(1)
        assert (cfg.alpha, cfg.beta_prime, cfg.beta) == (F(1, 1500), F(1, 750), F(1, 375))
        assert cfg.s == 1
        assert cfg.zeta == F(1, 300)

    def test_wide_gap_uses_decades(self):
        base = default_constants(2)
        wide = replace(
            base,
            gamma=F(1, 10**6),
            gammas=(F(1, 100000), F(1, 50), F(1, 2)),
            alpha=F(2, 100000),
            beta_prime=F(4, 100000),
            beta=F(8, 100000),
        )
        wide.validate()
        cfg = wide.for_s(1)
        assert (cfg.alpha, cfg.beta_prime, cfg.beta) == (F(1, 10000), F(1, 1000), F(1, 100))

    def test_refinement_ignores_preset_scales(self):
        # for_s rederives from the rung, so hand-set alpha never leaks through.
        base = default_constants(3)
        tweaked = replace(base, alpha=F(1, 7))
        assert tweaked.for_s(2).alpha == base.for_s(2).alpha

    def test_top_rung(self):
        cfg = default_constants(3).for_s(3)
        assert cfg.beta == F(4, 15)
        assert cfg.beta < F(1, 3)

    def test_s_range(self):
        with pytest.raises(ValueError):
            default_constants(3).for_s(0)
        with pytest.raises(ValueError):
            default_constants(3).for_s(4)


class TestValidation:
    @pytest.mark.parametrize("s", [0, 4, 2.0, "2", True])
    def test_part_count_must_be_an_integer_in_range(self, s):
        with pytest.raises(ValueError, match="must be an integer"):
            replace(default_constants(3), s=s).validate()

    def test_crowded_rungs_rejected(self):
        base = default_constants(3)
        with pytest.raises(ValueError, match="too close"):
            replace(base, gammas=(F(1, 200), F(1, 150), F(1, 30), F(1, 3))).validate()

    def test_ladder_must_end_at_reciprocal(self):
        base = default_constants(3)
        with pytest.raises(ValueError, match="end at 1/r"):
            replace(base, gammas=(F(1, 3000), F(1, 300), F(1, 30), F(1, 4))).validate()

    def test_crowding_waived_at_unit_ratio(self):
        # ladder_ratio=1 turns the crowding check into plain monotonicity.
        base = default_constants(3)
        cfg = replace(
            base,
            gamma=F(1, 600),
            gammas=(F(1, 300), F(1, 25), F(1, 3), F(1, 3)),
            ladder_ratio=F(1),
        )
        cfg.validate()
        refined = cfg.for_s(1)
        assert refined.beta == F(8, 300) < F(1, 25)

    def test_fraction_window_checks(self):
        base = default_constants(3)
        with pytest.raises(ValueError, match="xi"):
            replace(base, xi=F(0)).validate()
        with pytest.raises(ValueError, match="zeta"):
            replace(base, zeta=F(1, 2)).validate()
