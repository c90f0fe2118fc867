"""Unit tests for the admission-policy layer (repro.policy).

Policies are pure functions of the canonical buffer view, so the math is
testable in isolation; the spec grammar must round-trip exactly (the
checkpoint plane stores spec strings); and every malformed spec must die
with a did-you-mean ConfigError at config time, never mid-run.
"""

import pytest

from repro.core.errors import ConfigError
from repro.policy import (
    POLICIES,
    CompleteSharing,
    DynamicThreshold,
    PortReservation,
    StaticThreshold,
    parse_policy,
)


class TestParseAndSpec:
    @pytest.mark.parametrize("spec,cls", [
        ("complete", CompleteSharing),
        ("static:cap=8", StaticThreshold),
        ("dynamic:alpha=1.0", DynamicThreshold),
        ("reservation:reserve=2", PortReservation),
    ])
    def test_spec_round_trips(self, spec, cls):
        pol = parse_policy(spec)
        assert type(pol) is cls
        assert pol.spec == spec
        assert parse_policy(pol.spec) == pol

    def test_none_and_instance_passthrough(self):
        assert parse_policy(None) == CompleteSharing()
        pol = StaticThreshold(cap=4)
        assert parse_policy(pol) is pol

    def test_mapping_form(self):
        pol = parse_policy({"kind": "dynamic", "alpha": 0.5})
        assert pol == DynamicThreshold(alpha=0.5)
        with pytest.raises(ConfigError, match="string 'kind'"):
            parse_policy({"alpha": 0.5})

    def test_whitespace_tolerated(self):
        assert parse_policy("  static: cap = 8 ") == StaticThreshold(cap=8)

    def test_unknown_kind_did_you_mean(self):
        with pytest.raises(ConfigError, match=r"did you mean 'dynamic'"):
            parse_policy("dynamc:alpha=1.0")

    def test_unknown_parameter_did_you_mean(self):
        with pytest.raises(ConfigError, match=r"did you mean 'alpha'"):
            parse_policy("dynamic:alpa=1.0")

    def test_missing_parameter(self):
        with pytest.raises(ConfigError, match="missing parameter"):
            parse_policy("static")

    def test_malformed_parameter(self):
        with pytest.raises(ConfigError, match="expected 'name=value'"):
            parse_policy("static:cap")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="expects int"):
            parse_policy("static:cap=lots")

    def test_empty_and_non_string(self):
        with pytest.raises(ConfigError, match="must not be empty"):
            parse_policy("   ")
        with pytest.raises(ConfigError, match="must be a string"):
            parse_policy(7)

    def test_value_semantics(self):
        assert DynamicThreshold(1.0) == DynamicThreshold(1.0)
        assert DynamicThreshold(1.0) != DynamicThreshold(0.5)
        assert hash(StaticThreshold(3)) == hash(StaticThreshold(3))
        assert "static:cap=3" in repr(StaticThreshold(3))


class TestAdmitMath:
    def test_complete_admits_everything(self):
        pol = CompleteSharing()
        assert pol.trivial
        assert pol.admit(0, 0, [99, 99], 4)

    def test_static_cap_boundary(self):
        pol = StaticThreshold(cap=2)
        assert pol.admit(0, 10, [1, 5], 1)
        assert not pol.admit(0, 10, [2, 0], 1)  # at cap: refuse
        assert pol.admit(1, 10, [2, 1], 1)  # other output unaffected

    def test_dynamic_exact_rational_boundary(self):
        # alpha=1: admit iff quanta*(held[dst]+1) <= free, exactly
        pol = DynamicThreshold(alpha=1.0)
        assert pol.admit(0, 4, [3, 0], 1)  # 4 <= 4
        assert not pol.admit(0, 3, [3, 0], 1)  # 4 > 3
        # alpha=0.5 == 1/2: admit iff 2*quanta*(held+1) <= free
        half = DynamicThreshold(alpha=0.5)
        assert half.admit(0, 4, [1, 0], 1)  # 4 <= 4
        assert not half.admit(0, 3, [1, 0], 1)

    def test_dynamic_alpha_is_exact_fraction(self):
        pol = DynamicThreshold(alpha=0.75)
        assert (pol.alpha_num, pol.alpha_den) == (3, 4)

    def test_reservation_shortfall(self):
        pol = PortReservation(reserve=2)
        # other output holds 0: shortfall 2, need free >= 3
        assert pol.admit(0, 3, [5, 0], 1)
        assert not pol.admit(0, 2, [5, 0], 1)
        # other output already at its floor: plain free check
        assert pol.admit(0, 1, [5, 2], 1)
        # multi-quanta scales both terms
        assert pol.admit(0, 6, [0, 0], 2)  # 2*(1+2)=6
        assert not pol.admit(0, 5, [0, 0], 2)

    def test_validate_rejects_impossible_reservation(self):
        pol = PortReservation(reserve=4)
        with pytest.raises(ConfigError, match="needs 8 x 4 x 1 = 32"):
            pol.validate(n=8, addresses=16, quanta=1)
        pol.validate(n=4, addresses=16, quanta=1)  # exactly feasible

    def test_constructor_guards(self):
        with pytest.raises(ConfigError, match=">= 1"):
            StaticThreshold(cap=0)
        with pytest.raises(ConfigError, match="> 0"):
            DynamicThreshold(alpha=0.0)
        with pytest.raises(ConfigError, match=">= 1 packet"):
            PortReservation(reserve=0)


class TestRegistryAndState:
    def test_registry_covers_the_builtins(self):
        assert POLICIES == {
            "complete": CompleteSharing,
            "static": StaticThreshold,
            "dynamic": DynamicThreshold,
            "reservation": PortReservation,
        }

    def test_stateless_checkpoint_hooks(self):
        pol = DynamicThreshold(1.0)
        assert pol.state() is None
        pol.restore_state(None)  # no-op
        with pytest.raises(ConfigError, match="stateless"):
            pol.restore_state({"leftover": 1})
