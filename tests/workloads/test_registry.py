"""Workload registry: names, specs and aliases."""

import pytest

from repro.workloads.registry import (
    WorkloadEntry,
    canonical_workload_spec,
    entry_for,
    format_workload_spec,
    get_workload,
    list_aliases,
    list_workloads,
    parse_workload_spec,
    register_alias,
    register_workload,
    workload_from_spec,
)

#: Every workload the pre-registry CLI table offered, by its old name,
#: mapped to the spec that builds it now.  The workloads all stay
#: reachable; four old spellings are gone in favour of their specs.
OLD_CLI_SPELLINGS = {
    "base": "base",
    "base-pow25": "base:shape=pow25",
    "base-pow50": "base:shape=pow50",
    "base-pow75": "base:shape=pow75",
    "flows-x2": "flows-x2",
    "flows-x4": "flows-x4",
    "cnodes-x2": "cnodes-x2",
    "cnodes-x4": "cnodes-x4",
    "cnodes-x8": "cnodes-x8",
    "trade-data": "trade-data",
    "latest-price": "latest-price",
    "link-bottleneck": "bottleneck",
    "tree": "tree",
    "micro": "micro",
}

#: The old spellings that no longer resolve.
REMOVED_SPELLINGS = {
    old: spec for old, spec in OLD_CLI_SPELLINGS.items() if old != spec
}


class TestRegistryListing:
    def test_core_names_registered(self):
        names = list_workloads()
        for expected in ("micro", "base", "flows", "cnodes", "tree",
                         "bottleneck", "generated", "fault-churn"):
            assert expected in names

    def test_listing_is_sorted(self):
        names = list_workloads()
        assert list(names) == sorted(names)

    def test_entry_for_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="unknown workload"):
            entry_for("no-such-workload")

    def test_entries_document_defaults(self):
        entry = entry_for("tree")
        assert isinstance(entry, WorkloadEntry)
        assert "depth" in entry.defaults


class TestOldSpellings:
    @pytest.mark.parametrize("name", OLD_CLI_SPELLINGS)
    def test_every_old_cli_spelling_builds(self, name):
        problem = workload_from_spec(OLD_CLI_SPELLINGS[name])
        assert problem.flows

    def test_removed_spellings_fail_and_replacements_build(self):
        for old, replacement in REMOVED_SPELLINGS.items():
            with pytest.raises(KeyError, match="unknown workload"):
                get_workload(old)
            assert workload_from_spec(replacement).flows

    def test_stable_aliases_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            get_workload("flows-x2")
            get_workload("cnodes-x2")

    def test_alias_resolves_like_explicit_params(self):
        via_alias = get_workload("flows-x2")
        explicit = get_workload("flows", factor=2)
        assert via_alias.describe() == explicit.describe()

    def test_explicit_params_override_alias_implied(self):
        problem = get_workload("flows-x2", factor=4)
        assert problem.describe() == get_workload("flows", factor=4).describe()


class TestSpecs:
    def test_parse_name_only(self):
        assert parse_workload_spec("base") == ("base", {})

    def test_parse_coerces_values(self):
        name, params = parse_workload_spec(
            "generated:seed=3,flows=6,link_capacity=1.5e2,strict=true,shape=log"
        )
        assert name == "generated"
        assert params == {
            "seed": 3,
            "flows": 6,
            "link_capacity": 150.0,
            "strict": True,
            "shape": "log",
        }

    def test_parse_rejects_malformed_param(self):
        with pytest.raises(ValueError, match="expected k=v"):
            parse_workload_spec("base:shape")

    def test_parse_rejects_empty_name(self):
        with pytest.raises(ValueError, match="empty workload name"):
            parse_workload_spec(":k=v")

    def test_format_sorts_keys(self):
        assert (
            format_workload_spec("tree", {"flows": 2, "depth": 4})
            == "tree:depth=4,flows=2"
        )

    def test_canonical_resolves_aliases_and_sorts(self):
        assert canonical_workload_spec("flows-x4") == "flows:factor=4"
        assert (
            canonical_workload_spec("tree:flows=2,depth=4")
            == "tree:depth=4,flows=2"
        )

    def test_canonical_is_idempotent(self):
        spec = canonical_workload_spec("flows-x4")
        assert canonical_workload_spec(spec) == spec

    def test_canonical_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="unknown workload"):
            canonical_workload_spec("nope:k=1")

    def test_workload_from_spec_builds_with_params(self):
        problem = workload_from_spec("tree:depth=2,flows=2")
        assert problem.flows

    def test_bad_parameter_names_are_reported_with_documented_ones(self):
        with pytest.raises(TypeError, match="documented parameters"):
            get_workload("micro", bogus_knob=1)

    @pytest.mark.parametrize(
        "value",
        ["nan", "NaN", "inf", "-inf", "Infinity", "-INFINITY", "+inf"],
    )
    def test_parse_rejects_non_finite_values(self, value):
        # Pre-fix these coerced to non-finite floats, which poison
        # config_hash cache keys and violate the canonical_json /
        # JsonlSink no-non-finite contract.
        with pytest.raises(ValueError, match="non-finite"):
            parse_workload_spec(f"base:link_capacity={value}")

    def test_parse_canonicalizes_int_spellings(self):
        # Pre-fix, "1_0" and "10" aliased one workload to two different
        # sweep cache entries; both must coerce to the same int.
        _, underscored = parse_workload_spec("flows:factor=1_0")
        _, plain = parse_workload_spec("flows:factor=10")
        assert underscored == plain == {"factor": 10}
        assert (
            canonical_workload_spec("flows:factor=1_0")
            == canonical_workload_spec("flows:factor=10")
            == "flows:factor=10"
        )

    @pytest.mark.parametrize(
        "spec",
        ["base:,,flows=4", "base:flows=4,", "base:,", "tree:,depth=2"],
    )
    def test_parse_rejects_empty_parts(self, spec):
        # Pre-fix, empty parts were silently dropped, so a typo'd spec
        # quietly aliased to a different grid cell.
        with pytest.raises(ValueError, match="empty parameter"):
            parse_workload_spec(spec)

    def test_parse_rejects_dangling_colon(self):
        with pytest.raises(ValueError, match="dangling"):
            parse_workload_spec("base:")
        with pytest.raises(ValueError, match="dangling"):
            parse_workload_spec("base:  ")


class TestRegistration:
    def test_register_rejects_spec_syntax_in_name(self):
        with pytest.raises(ValueError, match="spec syntax"):
            register_workload("bad:name", lambda: None, "nope")

    def test_alias_cycle_detected(self):
        register_alias("cycle-a", "cycle-b")
        register_alias("cycle-b", "cycle-a")
        try:
            with pytest.raises(ValueError, match="alias cycle"):
                canonical_workload_spec("cycle-a")
        finally:
            from repro.workloads import registry

            registry._ALIASES.pop("cycle-a", None)
            registry._ALIASES.pop("cycle-b", None)

    def test_list_aliases_maps_to_canonical_specs(self):
        aliases = list_aliases()
        assert aliases["flows-x4"] == "flows:factor=4"
        assert aliases["cnodes-x8"] == "cnodes:factor=8"
