"""h-preorder calculus on labeled forests, canonical ordinal-indexed
trees, and difference/fine-hierarchy membership over finite T0 spaces.

Importing the package loads none of its modules: each exported name is
looked up in its home module on first use (PEP 562), so a caller pays
only for the modules it touches.  The six home modules are exported too.
"""

# home module -> the names it exports
_EXPORTS = {
    "ordinal": """OMEGA ONE ZERO Ord OrdinalSyntaxError add cmp_ord format_ordinal
        omega_pow ord_of parity parse_ordinal pred succ""",
    "forest": """EMPTY Forest ForestError Tree as_forest forest_from_json
        forest_to_json h_equiv h_leq is_join_irreducible join label_leq
        max_color meet node_count normalize rank singleton validate_forest
        wrap""",
    "nested": """LabeledNPreorder TermSyntaxError flatten l_join morphism_exists
        nesting_level parse_term print_term s_embed unflatten""",
    "canonical": """BAR PLAIN CanonicalName canonical_size classify_2forest
        classify_2tree_nested representative swap_colors
        t_flat t_nested""",
    "space": """FiniteSpace KPartition PFamily SpaceError all_partitions
        antichain_space base_from_json base_to_json chain_space
        check_omega_nesting close_base complements diamond_space dh_membership
        dh_witness_family diff_sequence_to_family difference_kernel
        family_defines family_to_diff_sequence fh_membership
        has_reduction_property hierarchy_report is_reduced powerset_base
        reduce_family reduce_pair report_to_dot up_sets validate_base
        validate_omega_base""",
    "degrees": """DegreePoset degree_poset degrees_to_dot degrees_to_json
        monotone_maps wadge_leq""",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in [module, *names.split()]}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(__all__).union(n for n in globals() if n.startswith("__")))
