"""Exact tensor resource algebra: tensors, conversion certificates,
hypergraph entanglement structures, obstruction functionals, and
witness-backed asymptotic rank bounds."""

from .scalars import EPS, FLOAT, RATIONAL, EpsPoly, QC
from .tensor import (
    GroupingSpec,
    StructureTooLarge,
    Tensor,
    apply_product_map,
    direct_sum,
    direct_sum_many,
    equal_up_to_padding,
    group,
    kron,
    kron_power,
    permute_factors,
    strip_padding,
    tensor_product,
)
from .matrix import Matrix, flatten, rank, rank_float
from .named import NamedTensorSpec, cw, epr, ghz, make_named, mamu, simple, unit, w_state
from .preorder import (
    CertificateError,
    DegenerationCertificate,
    OrbitClass222,
    RestrictionCertificate,
    classify_222,
    compose_restrictions,
    decide_222,
    interpolate,
    rank_222,
    subrank_222,
    verify_degeneration,
    verify_restriction,
)
from .obstructions import (
    KoszulSpec,
    ThetaWeights,
    flattening_ratio,
    gauge_points,
    hyperdeterminant_222,
    koszul_flatten,
    quantum_functional_point,
)
from .hypergraph import (
    FoldResult,
    GroupingMap,
    Hypergraph,
    build_structure,
    fold,
    fold_to_fan,
    is_homomorphism,
    make_family,
    slot_structure,
)
from .catalog import Catalog, CatalogEntry, CatalogError, Degeneration
from .asymptotic import (
    Bound,
    BoundReport,
    disjoint_rank_bounds,
    lattice_construction,
    lattice_obstruction,
    omega_bound,
    strassen_rank_bounds,
)

__version__ = "0.1.0"
