"""Iterated forests, flatten/unflatten, the term DSL."""

import gc
import random
import tracemalloc
import weakref

import pytest

from hforest import nested, oracles
from hforest.degrees import wadge_leq
from hforest.forest import (
    EMPTY,
    Forest,
    ForestError,
    Label,
    Tree,
    as_forest,
    as_label,
    forest_from_json,
    h_equiv,
    h_leq,
    join,
    lift,
    max_color,
    node_count,
    normalize,
    paths,
    singleton,
    wrap,
)
from hforest.canonical import canonical_size
from hforest.space import all_partitions, antichain_space, chain_space, diamond_space
from hforest.nested import (
    MAX_TERM_DEPTH,
    MEMO_FLAT_ELEMENTS,
    MEMO_TERM_LENGTH,
    MEMO_TERMS,
    LabeledNPreorder,
    TermSyntaxError,
    flatten,
    l_join,
    morphism_exists,
    nesting_level,
    parse_term,
    print_term,
    s_embed,
    unflatten,
)


def test_nesting_level():
    assert nesting_level(EMPTY) == 0
    assert nesting_level(join(singleton(0), singleton(1))) == 1
    assert nesting_level(s_embed(parse_term("0*1"))) == 2
    assert nesting_level((wrap(parse_term("0*1"), singleton(2)),)) == 2


def test_walks_answer_at_the_parse_depth_limit():
    chain = parse_term("0*" * 999 + "1")  # 1,000 nodes, one level
    labels = parse_term("s(" * 998 + "0*1" + ")" * 998)  # 999 levels
    assert (canonical_size(chain), node_count(chain), nesting_level(chain),
            max_color(chain)) == (1000, 1000, 1, 1)
    assert (canonical_size(labels), node_count(labels), nesting_level(labels),
            max_color(labels)) == (1000, 2, 999, 1)


def test_s_embed():
    assert s_embed(0) == singleton(0)
    q1, q2 = parse_term("0*1"), parse_term("0|1")
    assert h_leq(s_embed(q1), s_embed(q2)) == h_leq(q1, q2)
    assert h_leq(s_embed(q2), s_embed(q1)) == h_leq(q2, q1)
    assert h_equiv(l_join(s_embed(q1)), q1)
    with pytest.raises(ForestError):
        s_embed(EMPTY)


def test_l_join():
    f, g = parse_term("0*1"), parse_term("1*0")
    two_chain = (wrap(f, s_embed(g)),)
    assert h_equiv(l_join(two_chain), join(f, g))
    with pytest.raises(ForestError):
        l_join(join(singleton(0), singleton(1)))


def test_l_join_monotone_on_corpus():
    corpus = oracles.normalized_corpus(oracles.nested_forests(4, 2, 2))
    nested = [f for f in corpus if nesting_level(f) == 2]
    for p in nested:
        for q in nested:
            if h_leq(p, q):
                assert h_leq(l_join(p), l_join(q))


def test_flatten_examples():
    x = flatten(s_embed(join(singleton(0), singleton(1))), 2)
    assert x.size == 2
    assert x.labels == (0, 1)
    assert sorted(x.pairs(0)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert sorted(x.pairs(1)) == [(0, 0), (1, 1)]
    y = flatten(singleton(0), 1)
    assert y.size == 1 and y.labels == (0,)
    with pytest.raises(ForestError):
        flatten(s_embed(parse_term("0*1")), 1)


def test_unflatten_examples():
    x = flatten(s_embed(join(singleton(0), singleton(1))), 2)
    assert unflatten(x) == s_embed(join(singleton(0), singleton(1)))
    y = flatten(singleton(0), 1)
    assert unflatten(y) == singleton(0)


def test_unflatten_rejects_non_forest_layer():
    # one element below two incomparable ones: its up-set is not a chain
    x = LabeledNPreorder(
        3,
        ((0b111, 0b010, 0b100),),
        (0, 0, 0),
    )
    with pytest.raises(ForestError, match="layer 0"):
        unflatten(x)
    # 0 is below 1 but not below itself: no preorder
    with pytest.raises(ForestError, match="layer 0 is not a forest"):
        unflatten(LabeledNPreorder(2, ((0b10, 0b11),), (0, 0)))


def test_round_trip_on_corpus():
    for level in (1, 2, 3):
        for f in oracles.nested_forests(4, 2, level, include_empty=False):
            d = max(nesting_level(f), 1)
            assert unflatten(flatten(f, d)) == f


def test_round_trip_at_the_parse_depth_limit():
    chain = parse_term("0*" * 999 + "1")  # 1,000 nodes, one level
    layers = parse_term("s(" * 299 + "0*1" + ")" * 299)  # 300 levels
    deepest = parse_term("s(" * 998 + "0*1" + ")" * 998)  # 999 levels
    assert [nesting_level(f) for f in (chain, layers, deepest)] == [1, 300, 999]
    for f in (chain, layers, deepest):
        assert unflatten(flatten(f, nesting_level(f))) == f


def test_morphism_agrees_with_h_leq():
    corpus = oracles.normalized_corpus(oracles.nested_forests(4, 2, 2))
    flats = [flatten(f, 2) for f in corpus]
    for i, f in enumerate(corpus):
        for j, g in enumerate(corpus):
            assert h_leq(f, g) == morphism_exists(flats[i], flats[j])


def test_morphism_depth_mismatch():
    with pytest.raises(ForestError):
        morphism_exists(flatten(singleton(0), 1), flatten(singleton(0), 2))


def test_morphism_matches_reference():
    jobs = [(oracles.nested_forests(4, 2, level), level) for level in (1, 2, 3)]
    jobs.append((oracles.normalized_corpus(oracles.flat_forests(6, 3)), 1))
    answers = []
    for corpus, depth in jobs:
        flats = [flatten(f, depth) for f in oracles.sample_forests(corpus, 150, 16)]
        for x in flats:
            for y in flats:
                want = reference_morphism_exists(x, y)
                assert morphism_exists(x, y) == want, (x, y)
                answers.append(want)
    assert len(answers) == 143 ** 2 + 3 * 150 ** 2
    assert 0.05 < sum(answers) / len(answers) < 0.95
    # hand-built preorders: empty sides, a missing color, no layers at all
    one = flatten(singleton(0), 1)
    cases = [
        (one, flatten(singleton(0), 2)),
        (LabeledNPreorder(0, ((),), ()), one),
        (one, LabeledNPreorder(0, ((),), ())),
        (LabeledNPreorder(0, ((),), ()), LabeledNPreorder(0, ((),), ())),
        (flatten(parse_term("0*(1|2)"), 1), flatten(parse_term("0*1|2"), 1)),
        (flatten(parse_term("2"), 1), flatten(parse_term("0*1"), 1)),
        (LabeledNPreorder(2, (), (0, 1)), LabeledNPreorder(1, (), (0,))),
        (LabeledNPreorder(2, (), (1, 0)), LabeledNPreorder(2, (), (0, 1))),
    ]
    outcomes = [(_morphism_outcome(morphism_exists, x, y),
                 _morphism_outcome(reference_morphism_exists, x, y)) for x, y in cases]
    assert [got for got, _ in outcomes] == [want for _, want in outcomes] == [
        "depth mismatch", True, False, True, False, False, False, True]
    # depth-1 space preorders, through wadge_leq
    spaces = [chain_space(3), antichain_space(3), diamond_space()]
    checked = 0
    for space in spaces:
        for target in spaces:
            for k in (2, 3):
                for a in all_partitions(space.n, k):
                    x = LabeledNPreorder(space.n, (space.up,), a.labels)
                    for b in all_partitions(target.n, k):
                        y = LabeledNPreorder(target.n, (target.up,), b.labels)
                        assert wadge_leq(a, b, space, target) == reference_morphism_exists(x, y)
                        checked += 1
    assert checked == (8 + 8 + 16) ** 2 + (27 + 27 + 81) ** 2


def test_the_search_answers_at_the_parse_depth_limit():
    chain = parse_term("0*" * 999 + "1")  # 1,000 nodes, one level
    x = flatten(chain, 1)
    # the search reads the order rows and builds nothing quadratic in them
    tracemalloc.start()
    try:
        assert morphism_exists(x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert oracles.oracle_h_leq(chain, chain)


def test_parse_examples():
    assert parse_term("⊥") == EMPTY
    assert parse_term("bot") == EMPTY
    assert parse_term("0*(1⊔2)") == (wrap(0, join(singleton(1), singleton(2))),)
    assert parse_term("0*(1|2)") == (wrap(0, join(singleton(1), singleton(2))),)
    inner = parse_term("0*1")
    assert parse_term("(0*1)*2") == (Tree(inner, (Tree(2),)),)
    assert parse_term("s(0*1)") == (Tree(inner),)
    assert parse_term("0*1*2") == (Tree(0, (Tree(1, (Tree(2),)),)),)


def test_parse_color_bound():
    parse_term("0|1", k=2)
    with pytest.raises(TermSyntaxError):
        parse_term("0|2", k=2)
    # the bound is read off the parse, so it holds as deep as the parser reads
    deep = "0*" * 999
    assert parse_term(deep + "1", 2) == parse_term(deep + "1")
    with pytest.raises(TermSyntaxError, match=r"color out of range for k=2 \(at position 0\)"):
        parse_term(deep + "2", 2)


def test_parse_memo():
    assert parse_term("0*(1|2)|s(3)") is parse_term("0*(1|2)|s(3)")
    outcomes = []
    for _ in range(2):
        with pytest.raises(TermSyntaxError) as exc:
            parse_term("0*(1|)")
        outcomes.append((str(exc.value), exc.value.pos))
    assert outcomes[0] == outcomes[1] == ("unexpected character ')' (at position 5)", 5)
    # a k refusal on a miss and on a hit; the answer without k in between
    for expect_miss in (True, False):
        misses = nested._parse.cache_info().misses
        with pytest.raises(TermSyntaxError, match="color out of range for k=5"):
            parse_term("4*(3|5*1)", 5)
        assert (nested._parse.cache_info().misses > misses) is expect_miss
        assert parse_term("4*(3|5*1)", 6) is parse_term("4*(3|5*1)")
    # a text longer than MEMO_TERM_LENGTH is parsed afresh and not kept
    long_text = "0*" * 147 + "987654"
    assert len(long_text) == 300 > MEMO_TERM_LENGTH
    info = nested._parse.cache_info()
    tree = parse_term(long_text)[0]
    assert nested._parse.cache_info() == info
    ref = weakref.ref(tree)
    del tree
    gc.collect()
    assert ref() is None
    # the memo is bounded
    for i in range(2000):
        parse_term(f"{i}*{i + 1}")
    assert nested._parse.cache_info().currsize == MEMO_TERMS == 1024


def test_flatten_memo():
    f = parse_term("0*(1|s(2*3))|s(0)")
    assert flatten(f, 2) is flatten(list(f), 2) is flatten(parse_term("0*(1|s(2*3))|s(0)"), 2)
    assert flatten(f, 2) is not flatten(f, 3)
    # errors are raised afresh and never kept
    deep = s_embed(parse_term("0*1"))
    for depth, message in ((1, "nesting level 2 exceeds depth 1"),
                           (0, "depth must be positive")):
        before = dict(nested._FLATS)
        for _ in range(2):
            with pytest.raises(ForestError, match=message):
                flatten(deep, depth)
        assert nested._FLATS == before
    # a preorder of more than MEMO_FLAT_ELEMENTS elements is built afresh and
    # not kept
    big = parse_term("0*" * 147 + "987654")  # too long for the parse memo
    before = dict(nested._FLATS)
    x = flatten(big, 1)
    assert x.size == 148 > MEMO_FLAT_ELEMENTS
    assert flatten(big, 1) is not x and flatten(big, 1) == x
    assert morphism_exists(x, x)
    assert nested._FLATS == before
    ref = weakref.ref(big[0])
    del big, x
    gc.collect()
    assert ref() is None
    # the memo is bounded
    for i in range(2000):
        flatten(parse_term(f"{i}*{i + 1}"), 1)
    assert len(nested._FLATS) == MEMO_TERMS == 1024
    assert MEMO_FLAT_ELEMENTS == 64


def test_parse_errors():
    for bad in ("", "0*", "(0", "0)", "s(", "*1", "0 1"):
        with pytest.raises(TermSyntaxError):
            parse_term(bad)


def test_print_parse_round_trip():
    for level in (1, 2):
        for f in oracles.nested_forests(4, 2, level):
            text = print_term(f)
            assert parse_term(text) == normalize(f)


def test_print_term_is_the_render_of_the_normal_form():
    # each normal root keeps its term, so a second call reads what the
    # first one rendered; the nodes below a root keep none
    chain = parse_term("0*1*" * 499 + "0*1")  # 1,000 nodes, alternating
    cases = [EMPTY, parse_term("2|0*1|1*0|s(0*1)"), parse_term("s(0*1)"),
             parse_term("(0|1)*2"), parse_term("s(0*1)*(0|1)*2|s(1)"), chain]
    for f in cases + oracles.flat_forests(5, 2) + oracles.nested_forests(4, 2, 2):
        text = nested._render(normalize(f))
        assert print_term(f) == text
        assert print_term(f) == text
    assert print_term(EMPTY) == "bot"
    assert print_term(parse_term("1|0|0*0")) == "0|1"
    assert normalize(chain) == chain and chain[0].children[0]._text is None


def test_verbose_singleton_labels_are_equivalent():
    terse = s_embed(0)
    verbose = (Tree((Tree(0),)),)
    assert verbose == terse
    assert Tree([Tree(1)], terse) is Tree(1, terse)


def test_the_empty_forest_is_no_label():
    for label in (EMPTY, []):
        with pytest.raises(ForestError, match="the empty forest is not a label"):
            Tree(label, singleton(0))
    with pytest.raises(ForestError, match="the empty forest is not a label"):
        forest_from_json([{"label": 0, "children": [{"label": []}]}])


def test_parse_depth_limit():
    assert MAX_TERM_DEPTH == 1000
    # the deepest terms the recursive-descent parser read under the default
    # recursion limit still parse
    chain = parse_term("0*" * 987 + "1")[0]
    for _ in range(987):
        chain = chain.children[0]
    assert chain is Tree(1)
    assert parse_term("(" * 329 + "0" + ")" * 329) == singleton(0)
    assert parse_term("s(" * 329 + "0" + ")" * 329) == singleton(0)
    mixed = "(0*" * 500 + "1" + ")" * 500
    assert len(parse_term(mixed)) == 1
    for text in ("0*" * 1001 + "1", "(" * 1001 + "0" + ")" * 1001,
                 "(0*" * 501 + "1" + ")" * 501):
        with pytest.raises(ForestError, match="input nested too deeply"):
            parse_term(text)


# ---------------------------------------------------------------------------
# Reference implementations: the recursive-descent parser, the path-prefix
# flatten and the recursive morphism search that nested.py replaced, kept to
# check the new ones against.


def reference_parse_term(text: str) -> Forest:
    parser = _TermParser(text)
    result = parser.parse_forest()
    parser.skip_ws()
    if parser.pos != len(text):
        raise TermSyntaxError("trailing input", parser.pos)
    return result


class _TermParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_forest(self) -> Forest:
        items = [self.parse_item()]
        while self.peek() in ("⊔", "|"):
            self.pos += 1
            items.append(self.parse_item())
        return join(*items)

    def parse_item(self) -> Forest:
        left = self.parse_atom()
        if self.peek() == "*":
            self.pos += 1
            right = self.parse_item()
            return (wrap(_as_label(left, self.pos), right),)
        return left

    def parse_atom(self) -> Forest:
        ch = self.peek()
        if ch == "":
            raise TermSyntaxError("unexpected end of input", self.pos)
        if "0" <= ch <= "9":
            start = self.pos
            while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
                self.pos += 1
            try:
                color = int(self.text[start:self.pos])
            except ValueError:  # longer than int() converts
                raise TermSyntaxError("number too long", start) from None
            return singleton(color)
        if ch == "⊥":
            self.pos += 1
            return EMPTY
        if self.text.startswith("bot", self.pos):
            self.pos += 3
            return EMPTY
        if ch == "s" and self.text[self.pos + 1 : self.pos + 2] == "(":
            self.pos += 2
            inner = self.parse_forest()
            self.expect(")")
            return (wrap(_as_label(inner, self.pos), EMPTY),)
        if ch == "(":
            self.pos += 1
            inner = self.parse_forest()
            self.expect(")")
            return inner
        raise TermSyntaxError(f"unexpected character {ch!r}", self.pos)

    def expect(self, ch: str):
        if self.peek() != ch:
            raise TermSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1


def _as_label(f: Forest, pos: int) -> Label:
    if not f:
        raise TermSyntaxError("the empty forest is not a label", pos)
    return as_label(f)


def _elements(f: Forest, depth: int):
    """Tuples of node paths, one per level, plus the final color."""
    for path, t in paths(f):
        if depth == 1:
            if not isinstance(t.label, int):
                raise ForestError("nesting level exceeds the requested depth")
            yield (path,), t.label
        else:
            for inner, color in _elements(lift(t.label), depth - 1):
                yield (path,) + inner, color


def reference_flatten(f: Forest, depth: int) -> LabeledNPreorder:
    f = as_forest(f)
    if depth < 1:
        raise ForestError("depth must be positive")
    nesting = nesting_level(f)
    if nesting > depth:
        raise ForestError(f"nesting level {nesting} exceeds depth {depth}")
    elems = list(_elements(f, depth))
    elem_paths = [e[0] for e in elems]
    labels = tuple(e[1] for e in elems)
    orders = []
    for level in range(depth):
        rows = []
        for pa in elem_paths:
            prefix = pa[:level]
            seg = pa[level]
            mask = 0
            # a is below b when b's node path is a prefix (an ancestor)
            for b, pb in enumerate(elem_paths):
                if pb[:level] == prefix and seg[: len(pb[level])] == pb[level]:
                    mask |= 1 << b
            rows.append(mask)
        orders.append(tuple(rows))
    return LabeledNPreorder(len(elems), tuple(orders), labels)


def reference_morphism_exists(x: LabeledNPreorder, y: LabeledNPreorder) -> bool:
    """The recursive search that nested.py replaced, with its table uncached."""
    if x.depth != y.depth:
        raise ForestError("depth mismatch")
    by_color: dict[int, int] = {}  # color -> mask of the elements of y
    for b, color in enumerate(y.labels):
        by_color[color] = by_color.get(color, 0) | 1 << b
    domains = [by_color.get(color, 0) for color in x.labels]
    if 0 in domains:
        return False
    xup = x.orders
    yup = y.orders
    ydn = _down_rows(y.orders, y.size)
    full = (1 << y.size) - 1
    levels = range(x.depth)
    size = x.size

    def search(a: int, doms: list) -> bool:
        if a == size:
            return True
        dom = doms[a]
        while dom:
            b = (dom & -dom).bit_length() - 1
            dom &= dom - 1
            nxt = doms[:]
            ok = True
            for c in range(a + 1, size):
                allowed = full
                for level in levels:
                    if xup[level][a] >> c & 1:
                        allowed &= yup[level][b]
                    if xup[level][c] >> a & 1:
                        allowed &= ydn[level][b]
                nxt[c] &= allowed
                if not nxt[c]:
                    ok = False
                    break
            if ok and search(a + 1, nxt):
                return True
        return False

    return search(0, domains)


def _down_rows(orders: tuple, size: int) -> tuple:
    """Transpose of the up-set rows: bit a of result[i][b] means a <=_i b."""
    out = []
    for rows in orders:
        dn = [0] * size
        for a in range(size):
            row = rows[a]
            while row:
                b = (row & -row).bit_length() - 1
                row &= row - 1
                dn[b] |= 1 << a
        out.append(tuple(dn))
    return tuple(out)


def _morphism_outcome(search, x, y):
    try:
        return search(x, y)
    except ForestError as exc:
        return str(exc)


def _flatten_outcome(flat, f, depth):
    try:
        return flat(f, depth)
    except ForestError as exc:
        return str(exc)


def _parse_outcome(parse, text):
    try:
        return "ok", parse(text)
    except TermSyntaxError as exc:
        return "error", (str(exc), exc.pos)


_TOKENS = (
    "0", "1", "2", "9", " ", "\t", "\u3000", "s", "(", ")", "*", "|", "⊔",
    "⊥", "bot", "b", "o", "t", "\u00b2", "x", "7" * 4400,
)
# the long number costs a 4,400-character scan: about 1.7% of texts hold it
_WEIGHTS = (1,) * (len(_TOKENS) - 1) + (0.05,)


def test_parser_matches_reference():
    texts = [print_term(f) for level in (1, 2, 3)
             for f in oracles.nested_forests(4, 2, level)]
    rng = random.Random(7001)
    for _ in range(100_000):
        k = rng.randint(0, 14)
        texts.append("".join(rng.choices(_TOKENS, _WEIGHTS, k=k)))
    parsed, errors = 0, set()
    for text in texts:
        ref_kind, want = _parse_outcome(reference_parse_term, text)
        for _ in range(2):  # the second call is a memo hit for a short text
            kind, got = _parse_outcome(parse_term, text)
            assert kind == ref_kind, text
            if kind == "ok":
                assert len(got) == len(want), text
                assert all(a is b for a, b in zip(got, want)), text
            else:
                assert got == want, text
        if kind == "ok":
            top = max_color(want)
            assert parse_term(text, top + 1) == got, text
            if top >= 0:
                with pytest.raises(TermSyntaxError, match="color out of range"):
                    parse_term(text, top)
            parsed += 1
        else:
            errors.add(got[0].split(" (at")[0].split(" '")[0])
    assert parsed > 5_000
    assert errors == {
        "unexpected end of input", "unexpected character", "trailing input",
        "expected", "number too long", "the empty forest is not a label",
    }


def test_flatten_matches_reference():
    cases = 0
    corpora = [oracles.nested_forests(4, 2, level) for level in (1, 2, 3)]
    corpora.append(oracles.nested_forests(5, 3, 1))
    for corpus in corpora:
        for f in corpus:
            for depth in range(max(nesting_level(f), 1), 4):
                got = flatten(f, depth)
                want = reference_flatten(f, depth)
                assert got == want and got.labels == want.labels, (f, depth)
                cases += 1
    assert cases > 10_000
    with pytest.raises(ForestError, match="depth must be positive"):
        flatten(singleton(0), 0)
    with pytest.raises(ForestError, match="nesting level 2 exceeds depth 1"):
        flatten(s_embed(parse_term("0*1")), 1)
    for f, depth in ((singleton(0), 0), (s_embed(parse_term("0*1")), 2)):
        assert _flatten_outcome(flatten, f, depth) == _flatten_outcome(
            reference_flatten, f, depth)
