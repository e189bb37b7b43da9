"""Exact counting of totally frustrated states of gain graphs.

A gain graph is a multigraph whose oriented edges carry elements of a finite
group; a state assigns each vertex a spin from a set the group acts on, and
an edge is frustrated when its equation s_v * gain != s_w holds.  This
package counts states in which every edge is frustrated, by four mutually
cross-checking methods, and assembles the counts into exact multivariate and
univariate polynomials.
"""

from .groups import (
    BoundExceeded,
    FiniteGroup,
    SpinAction,
    build_cyclic,
    build_symmetric,
    conjugate_subgroup,
    disjoint_union_action,
    fixed_set,
    generate_subgroup,
    regular_action,
    standard_colors,
    subset_action,
    trivial_action,
    verify_action,
    verify_group,
    zero_free_colors,
)
from .graphs import (
    ComponentSplit,
    Edge,
    GainGraph,
    SimpleGraph,
    balanced_component_count,
    components,
    contract_link,
    delete_edge,
    frame_rank,
    gain_graph,
    graphic_closure,
    group_expansion,
    is_balanced,
    oriented_gain,
    satisfied_edges,
    spanning_forest,
    switch,
    switch_state,
    walk_gain,
)
from .holonomy import (
    ClosedSetLattice,
    HolonomyCache,
    HolonomyContext,
    component_subgroup,
    enumerate_closed_sets,
    h_fixed_count,
    holonomy_closure,
    holonomy_generators,
    holonomy_group,
    is_holonomy_closed,
)
from .counting import (
    CountResult,
    MethodReport,
    count_auto,
    count_brute,
    count_delcon,
    count_inclexcl,
    count_mobius,
    theta,
    verify_all,
)
from .polynomials import (
    MultiPoly,
    UniPoly,
    chromatic_polynomial,
    grand_polynomial,
    graph_chromatic,
    leading_form,
    regular_plus_zeroes,
    zero_free_polynomial,
)
from .models import (
    SignedGraph,
    block_permutation_action,
    equivalence_direct_count,
    equivalence_expansion,
    potts_direct_count,
    potts_gain_graph,
    potts_satisfiable_count,
    set_coloring_count,
    set_coloring_direct,
)

__version__ = "0.1.0"
