import dataclasses
import inspect
import types

import numpy as np
import pytest

import synspec
from synspec.errors import as_index


def test_all_lists_each_public_name_once():
    assert len(synspec.__all__) == len(set(synspec.__all__))
    for name in synspec.__all__:
        getattr(synspec, name)
    public = {name for name, value in vars(synspec).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(synspec.__all__) == public


def test_as_index_rejects_booleans():
    # operator.index(True) is 1
    for value in (True, False, np.True_):
        with pytest.raises(synspec.InvalidInputError, match="seed"):
            as_index(value, "seed must be an integer", 0)
    assert as_index(np.int64(3), "seed must be an integer", 0) == 3


# every public callable's parameters, a dataclass's by its fields; the error
# classes take a message only and are left out
LIBRARY_SURFACE = {
    "ApproximantReport": [
        "S", "distances", "max_distance", "sweeps", "off_diag_residual",
        "objective_trace", "stop_reason"],
    "BallUnion": ["n", "eta", "centers", "grid", "lattice"],
    "BottReport": ["value", "gap", "bound"],
    "BrickSet": ["n", "k", "corners"],
    "GridSpec": ["n", "M", "eta", "k"],
    "HermitianMatrix": ["entries"],
    "Hole": ["representative", "cell_count"],
    "IndexCheckReport": [
        "verdict", "holes", "spectrum", "sampling_error_bound"],
    "NearSpectrumWitness": ["points", "S", "eta"],
    "OperatorTuple": ["ops", "norm_bound"],
    "RegionTopology": ["component_count", "holes", "resolution"],
    "SymbolOperator": ["coeffs"],
    "TruncationFamily": ["base", "N", "n0", "w"],
    "WindingReport": [
        "lam", "winding", "index", "min_curve_distance", "samples"],
    "WitnessReport": ["witness", "distances", "max_distance", "valid"],
    "big_theta_norm": ["T", "xi", "eta"],
    "bott_index": ["H1", "H2", "H3"],
    "brick_cover": ["X", "k"],
    "certificate_matrix": ["H1", "H2", "H3"],
    "certified_distance_bound": ["H"],
    "commutator_norm": ["A", "B"],
    "containment_check": ["inner", "outer", "slack"],
    "dilate": ["R", "r"],
    "dump_canonical": ["obj", "path"],
    "dumps_canonical": ["obj"],
    "fredholm_index": ["op", "lam"],
    "grid_points": ["spec"],
    "hausdorff_distance": ["A", "B", "resolution"],
    "index_hypothesis_check": ["op", "eta"],
    "joint_diagonalize": ["T", "max_sweeps"],
    "joint_eigensystem": ["T"],
    "near_spectrum_witness": ["T", "S", "eta"],
    "op_norm": ["A"],
    "pairwise_commutator_norms": ["T"],
    "quasicentral_family": ["fam"],
    "random_almost_commuting": ["n", "dim", "delta", "seed", "exact"],
    "random_hermitian": ["dim", "rng", "norm"],
    "region_topology": ["R", "resolution"],
    "run_suite": ["suite", "trials", "seed"],
    "scalar_synthetic_spectrum": ["op", "eta"],
    "spectral_norm": ["a"],
    "spin_triple": ["j"],
    "synthetic_spectrum": ["T", "eta", "grid_cap"],
}


def parameters(obj):
    if dataclasses.is_dataclass(obj):
        return [f.name for f in dataclasses.fields(obj)]
    return list(inspect.signature(obj).parameters)


def test_library_surface():
    # a parameter is added or removed only together with this table
    surface = {}
    for name in synspec.__all__:
        obj = getattr(synspec, name)
        if callable(obj) and not (inspect.isclass(obj)
                                  and issubclass(obj, synspec.SynspecError)):
            surface[name] = parameters(obj)
    assert surface == LIBRARY_SURFACE
