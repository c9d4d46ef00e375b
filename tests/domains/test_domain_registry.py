"""Tests for the domain plugin registry."""

import pickle

import pytest

from repro.domains import (
    SPMV,
    FeatureField,
    GatheredFeatureRow,
    KnownFeatureRow,
    ProblemDomain,
    domain_names,
    get_domain,
    register_domain,
    unregister_domain,
)
from repro.gpu.device import SMALL_GPU
from repro.kernels.csr_vector import CsrWarpMapped


# ----------------------------------------------------------------------
# Domain registry
# ----------------------------------------------------------------------
def test_builtin_domains_are_registered():
    assert "spmv" in domain_names()
    assert "spmm" in domain_names()
    assert get_domain("spmv") is SPMV
    assert get_domain(SPMV) is SPMV


def test_unknown_domain_raises_with_suggestion():
    with pytest.raises(KeyError) as excinfo:
        get_domain("spvm")
    assert "spvm" in str(excinfo.value)
    assert "spmv" in str(excinfo.value)  # close-match suggestion


def test_duplicate_domain_registration_raises():
    class Duplicate(ProblemDomain):
        name = "spmv"

    with pytest.raises(ValueError):
        register_domain(Duplicate())


def test_register_and_unregister_custom_domain():
    class Custom(ProblemDomain):
        name = "custom-test-domain"

    domain = Custom()
    try:
        assert register_domain(domain) is domain
        assert get_domain("custom-test-domain") is domain
        with pytest.raises(ValueError):
            register_domain(Custom())
    finally:
        unregister_domain("custom-test-domain")
    with pytest.raises(KeyError):
        get_domain("custom-test-domain")


def test_registering_non_domain_raises():
    with pytest.raises(TypeError):
        register_domain(object())


def test_domains_pickle_to_registered_singletons():
    restored = pickle.loads(pickle.dumps(SPMV))
    assert restored is SPMV
    restored_spmm = pickle.loads(pickle.dumps(get_domain("spmm")))
    assert restored_spmm is get_domain("spmm")


# ----------------------------------------------------------------------
# Kernel registration
# ----------------------------------------------------------------------
def test_duplicate_kernel_registration_raises():
    class Toy(ProblemDomain):
        name = "toy-kernels"

    domain = Toy()

    @domain.register_kernel
    class ToyKernel:
        name = "TOY"

        def timing(self, workload):
            raise NotImplementedError

    assert domain.kernel_names() == ("TOY",)
    with pytest.raises(ValueError):
        domain.register_kernel(ToyKernel)


def test_kernel_without_label_is_rejected():
    class Toy(ProblemDomain):
        name = "toy-nameless"

    with pytest.raises(ValueError):
        Toy().register_kernel(object)


def test_make_kernel_accepts_already_instantiated_kernels():
    kernel = CsrWarpMapped(SMALL_GPU)
    assert SPMV.make_kernel(kernel) is kernel
    with pytest.raises(TypeError):
        SPMV.make_kernel(12345)


def test_make_kernel_suggests_close_matches():
    with pytest.raises(KeyError) as excinfo:
        SPMV.make_kernel("CSR,VM")
    message = str(excinfo.value)
    assert "CSR,VM" in message
    assert "did you mean" in message


# ----------------------------------------------------------------------
# Generic feature rows
# ----------------------------------------------------------------------
def test_known_feature_row_protocol():
    row = KnownFeatureRow(names=("rows", "nnz", "iterations"), values=(4, 9, 1))
    assert row.rows == 4 and row.nnz == 9 and row.iterations == 1
    assert list(row.as_vector()) == [4.0, 9.0, 1.0]
    assert row.as_dict() == {"rows": 4, "nnz": 9, "iterations": 1}
    bumped = row.with_iterations(19)
    assert bumped.iterations == 19 and row.iterations == 1
    with pytest.raises(AttributeError):
        _ = row.missing_feature


def test_known_feature_row_requires_iterations_field_to_bump():
    row = KnownFeatureRow(names=("rows",), values=(4,))
    with pytest.raises(ValueError):
        row.with_iterations(2)


def test_gathered_feature_row_protocol():
    row = GatheredFeatureRow(names=("a", "b"), values=(0.5, 0.25))
    assert row.collection_time_ms == 0.0
    timed = row.with_collection_time(1.5)
    assert timed.collection_time_ms == 1.5
    assert timed == row  # collection time does not participate in equality
    assert timed.as_dict() == {"a": 0.5, "b": 0.25}


def test_feature_schema_names_and_describe():
    spmm = get_domain("spmm")
    assert "num_vectors" in spmm.known_feature_names
    description = spmm.describe()
    assert description["name"] == "spmm"
    assert description["kernels"] == list(spmm.kernel_names())


def test_known_features_requires_extractor():
    class Toy(ProblemDomain):
        name = "toy-schema"
        known_fields = (FeatureField("mystery"),)

    with pytest.raises(ValueError):
        Toy().known_features(object())


def test_unregistered_domain_pickles_by_state():
    # Module-level classes pickle by reference; the instance must round-trip
    # by state (not by registry lookup) so custom domains can cross into
    # spawn-start-method engine workers before/without registration.
    domain = _UnregisteredModuleLevel()
    restored = pickle.loads(pickle.dumps(domain))
    assert restored is not domain
    assert restored.name == domain.name


class _UnregisteredModuleLevel(ProblemDomain):
    name = "unregistered-module-level"


def test_instance_resolution_registers_by_name():
    # Pipeline stages only carry the domain's *name* (suites, cache keys);
    # passing an instance anywhere must make that name resolvable.
    class InstanceOnly(ProblemDomain):
        name = "instance-only-domain"

    domain = InstanceOnly()
    try:
        assert get_domain(domain) is domain
        assert get_domain(domain.name) is domain
        with pytest.raises(ValueError):
            get_domain(InstanceOnly())  # a *different* instance cannot shadow
    finally:
        unregister_domain(domain.name)


def test_registered_custom_domain_unpickles_in_fresh_registry():
    # Simulates a spawn-start-method worker: the custom domain was
    # registered in the parent, but the unpickling process has a registry
    # containing only the built-ins.
    domain = _SpawnSimDomain()
    register_domain(domain)
    try:
        payload = pickle.dumps(domain)
    finally:
        unregister_domain(domain.name)
    restored = pickle.loads(payload)
    try:
        assert restored is not domain
        assert restored.name == domain.name
        # ...and the rebuilt instance re-registered itself, so name-only
        # references (cache keys, suites) resolve in the worker too.
        assert get_domain(domain.name) is restored
    finally:
        unregister_domain(domain.name)


class _SpawnSimDomain(ProblemDomain):
    name = "spawn-sim-domain"
