"""Exact counting of totally frustrated states of gain graphs.

A gain graph is a multigraph whose oriented edges carry elements of a finite
group; a state assigns each vertex a spin from a set the group acts on, and
an edge is frustrated when its equation s_v * gain != s_w holds.  This
package counts states in which every edge is frustrated, by five mutually
cross-checking methods, and reads exact multivariate and univariate
polynomials of the counts off Zaslavsky's balanced expansion over the edge
subsets, which equals the Möbius sum over the lattice of holonomy-closed
edge sets.
"""

from .groups import (
    BoundExceeded,
    FiniteGroup,
    SpinAction,
    build_cyclic,
    build_symmetric,
    disjoint_union_action,
    fixed_set,
    generate_subgroup,
    regular_action,
    stabilizer_classes,
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
    gain_graph,
    group_expansion,
    is_balanced,
    satisfied_edges,
    spanning_forest,
    switch,
    switch_state,
)
from .holonomy import (
    ClosedSetLattice,
    HolonomyCache,
    HolonomyContext,
    SubsetTerms,
    component_subgroup,
    enumerate_closed_sets,
    holonomy_closure,
    holonomy_generators,
    holonomy_group,
    is_holonomy_closed,
    subset_terms,
)
from .counting import (
    CountResult,
    MethodReport,
    count_auto,
    count_brute,
    count_delcon,
    count_elim,
    count_inclexcl,
    count_mobius,
    theta,
    verify_all,
)
from .polynomials import (
    MultiPoly,
    chromatic_polynomial,
    grand_polynomial,
    graph_chromatic,
    leading_form,
    regular_plus_zeroes,
    zero_free_polynomial,
)
from .models import (
    SignedGraph,
    potts_direct_count,
    potts_gain_graph,
    set_coloring_direct,
)

__version__ = "0.1.0"
