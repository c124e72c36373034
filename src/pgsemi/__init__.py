"""pgsemi: projection algebras, chain semigroups, and their complexes."""

from .projections import (
    ProjectionAlgebra,
    check_derived_laws,
    is_morphism,
    relations,
    theta_chain,
    validate_axioms,
)
from .semigroups import (
    AdjacencyGraph,
    StarSemigroup,
    adjacency_semigroup,
    projection_algebra_of,
    subsemigroup_closure,
    validate_star_semigroup,
)
from .chains import (
    LinkedPair,
    Path,
    classify_linked_pair,
    enumerate_linked_pairs,
    lambda_rho,
    reduce_path,
    restrict_left,
    restrict_right,
    restrict_linked_pair,
)
from .topology import (
    Complex2,
    GroupPresentation,
    complex_KP,
    complex_KP_prime,
    components,
    friendliness_graph,
    pi1_presentation,
    tietze_simplify,
)
from .chainsemigroup import (
    INFINITE,
    UNKNOWN,
    ChainSemigroupHandle,
    ReducedChain,
    star_semigroup_of,
)
from .boset import (
    Boset,
    boset_of,
    compare_with_semigroup_boset,
    e_of,
    projection_algebra_of_boset,
    sandwich_set,
)
from .presentations import (
    SemigroupPresentation,
    presentation_RE,
    presentation_RE2,
    presentation_RP,
    tl_presentation,
    verify_presentation,
    word_to_friendly_path,
)
from .catalog import kinyon_algebra, parse_source, square_band_algebra

__version__ = "0.1.0"
