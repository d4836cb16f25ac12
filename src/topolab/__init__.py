"""topolab: almost trivial topologies on finite groups.

Builds finite groups from a small spec language, computes their normal
subgroup lattices, decides semitopological (and n-step semitopological)
identity maps between almost trivial topologies, classifies groups as
Taimanov / totally Taimanov / Arnautov, and analyzes permutation actions
for trivial centralizers.  Every closed-form decision is paired with an
independent oracle.
"""

# the one version string: pyproject.toml and report.TOOL_VERSION read it;
# set before the submodule imports so report can import it
__version__ = "0.1.0"

from .classify import (
    ArnautovWitness,
    ClassificationReport,
    classify,
    is_a_complete,
    is_arnautov,
    is_perfect,
    is_taimanov,
    is_totally_taimanov,
)
from .errors import (
    CapExceeded,
    DegreeTooLarge,
    GroupMismatch,
    InternalInconsistency,
    InvalidSpec,
    NotComparable,
    NotNormal,
    OrderCapExceeded,
    SpecSyntaxError,
    TopolabError,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    AffineSpecialLinear,
    Alternating,
    Cyclic,
    Dihedral,
    FiniteGroup,
    GeneralizedDihedral,
    GroupSpec,
    Heisenberg,
    PermSpec,
    Product,
    Quaternion8,
    SpecialLinear,
    Symmetric,
    build_group,
    center,
    centralizer,
    commutator,
    direct_product,
    invert,
    multiply,
    spec_order,
)
from .permaction import (
    LemmaFailure,
    OrbitData,
    PermAction,
    build_centralizing_witness,
    full_symmetric_centralizer,
    lemma_trivial_centralizer,
    orbit_data,
    random_actions,
)
from .report import emit_catalog_json, emit_lattice_dot, emit_report_json
from .semitop import (
    SemitopVerdict,
    StepCount,
    is_n_step,
    is_semitopological,
    is_semitopological_oracle,
    min_steps,
)
from .specparse import format_perm, parse_group_spec, print_group_spec
from .subgroups import (
    CentralSeries,
    QuotientMap,
    Subgroup,
    all_normal_subgroups,
    are_conjugate,
    center_subgroup,
    commutator_subgroup,
    conjugacy_classes,
    derived_subgroup,
    full_subgroup,
    generated_subgroup,
    lower_central_series,
    nilpotency_class,
    normal_closure,
    normalizer,
    quotient_center,
    quotient_group,
    subgroup,
    subgroup_as_group,
    trivial_subgroup,
    upper_central_series,
)
from .topology import (
    AlmostTrivialTopology,
    TaimanovWitness,
    discrete_topology,
    indiscrete_topology,
    induced,
    is_open,
    leq,
    make_topology,
    product_topology,
    quotient_topology,
    taimanov_topology,
)

