from __future__ import annotations

import json
from random import Random

import pytest
from hypothesis import given

import adequate
from adequate import (
    Alphabet,
    AlphabetMismatch,
    BadVertexId,
    Edge,
    Formula,
    Letter,
    Mode,
    NoTrunk,
    NotATree,
    Sidedness,
    SigmaTree,
    TraversalOrder,
    Unary,
    UnaryOp,
    UnknownSymbol,
    base_tree,
    canonical_word,
    concat,
    descendants,
    evaluate,
    exists_morphism,
    from_json,
    occurrence_count,
    parse,
    prune,
    render,
    to_dot,
    to_json,
    traversal,
    trivial_tree,
    trunk,
    unpruned_plus,
    unpruned_product,
    unpruned_star,
    validate,
)
from adequate.generate import enumerate_trees, random_formula, random_relabelling, random_tree
from oracles import (
    descendants_by_paths,
    evaluate_by_nodes,
    evaluate_by_products,
    parse_by_index,
    traversal_by_iterators,
)
from strategies import formulas, large_words, trees


def shape(tree):
    return (tree.vertex_count, tree.start, tree.end, tuple(tree.edges))


def test_validate_base(ab):
    t = validate(2, 0, 1, [("a", 0, 1)], ab)
    assert shape(t) == (2, 0, 1, (Edge("a", 0, 1),))


def test_validate_no_trunk(ab):
    with pytest.raises(NoTrunk):
        validate(2, 1, 0, [("a", 0, 1)], ab)


def test_validate_not_a_tree(ab):
    from adequate import Alphabet

    with pytest.raises(NotATree):
        validate(3, 0, 2, [("a", 0, 1), ("b", 1, 2), ("c", 2, 0)], Alphabet.from_string("abc"))
    with pytest.raises(NotATree):
        validate(4, 0, 0, [("a", 0, 1), ("a", 2, 3), ("a", 3, 2)], ab)


def test_validate_bad_ids(ab):
    with pytest.raises(BadVertexId):
        validate(2, 0, 2, [("a", 0, 1)], ab)
    with pytest.raises(BadVertexId):
        validate(2, 0, 1, [("a", 0, 5)], ab)
    with pytest.raises(BadVertexId):
        validate(0, 0, 0, [], ab)


def test_validate_unknown_label(ab):
    with pytest.raises(UnknownSymbol):
        validate(2, 0, 1, [("z", 0, 1)], ab)


def test_base_and_trivial(ab):
    assert shape(base_tree("a", ab)) == (2, 0, 1, (Edge("a", 0, 1),))
    assert shape(base_tree("b", ab)) == (2, 0, 1, (Edge("b", 0, 1),))
    with pytest.raises(UnknownSymbol):
        base_tree("z", ab)
    assert shape(trivial_tree(ab)) == (1, 0, 0, ())


def test_unpruned_product_examples(ab):
    a, b = base_tree("a", ab), base_tree("b", ab)
    assert shape(unpruned_product(a, b)) == (3, 0, 2, (Edge("a", 0, 1), Edge("b", 1, 2)))
    assert shape(unpruned_product(trivial_tree(ab), a)) == shape(a)
    plus_a = evaluate(parse("(a)+", ab))
    assert shape(unpruned_product(plus_a, a)) == (3, 0, 2, (Edge("a", 0, 1), Edge("a", 0, 2)))
    with pytest.raises(AlphabetMismatch):
        unpruned_product(a, base_tree("a", Alphabet.from_string("abc")))


def test_unpruned_plus_star(ab):
    a = base_tree("a", ab)
    assert shape(unpruned_plus(a)) == (2, 0, 0, (Edge("a", 0, 1),))
    assert shape(unpruned_star(a)) == (2, 1, 1, (Edge("a", 0, 1),))
    assert unpruned_plus(trivial_tree(ab)) == trivial_tree(ab)
    assert unpruned_star(trivial_tree(ab)) == trivial_tree(ab)
    assert unpruned_plus(unpruned_plus(a)) == unpruned_plus(a)
    combo = unpruned_star(unpruned_plus(a))
    assert combo.start == combo.end == a.start


def test_evaluate_examples(ab):
    assert shape(evaluate(parse("a", ab))) == shape(base_tree("a", ab))
    assert shape(evaluate(parse("(a)+a", ab))) == (3, 0, 2, (Edge("a", 0, 1), Edge("a", 0, 2)))
    # hand-derived: glue a, star-of-b, then move the end onto the start
    assert shape(evaluate(parse("(a(b)*)+", ab))) == (
        3, 0, 0, (Edge("a", 0, 1), Edge("b", 2, 1)),
    )
    assert shape(evaluate(parse("", ab))) == (1, 0, 0, ())


def test_evaluate_matches_products_on_corpus_words(ab):
    for t in enumerate_trees(4, ab):
        f = parse(canonical_word(t), ab)
        assert to_json(evaluate(f)) == to_json(evaluate_by_products(f))


def test_evaluate_matches_products_on_random_formulas(ab):
    rng = Random(4242)
    for sidedness in Sidedness:
        for semigroup in (False, True):
            mode = Mode(sidedness, semigroup)
            for _ in range(2000):
                f = random_formula(rng, ab, max_len=60, mode=mode)
                assert to_json(evaluate(f)) == to_json(evaluate_by_products(f))


def test_evaluate_matches_products_on_large_formulas(ab):
    rng = Random(4243)
    for _ in range(5):
        f = parse(canonical_word(random_tree(rng, 800, ab)), ab)
        assert occurrence_count(f) >= 800
        assert to_json(evaluate(f)) == to_json(evaluate_by_products(f))


def _assert_text_walk_matches_node_walks(f):
    got = to_json(evaluate(f))
    assert got == to_json(evaluate_by_nodes(f)) == to_json(evaluate_by_products(f)), render(f)


def test_evaluate_matches_node_walks_on_random_formulas(ab):
    rng = Random(4244)
    for sidedness in Sidedness:
        for semigroup in (False, True):
            mode = Mode(sidedness, semigroup)
            for _ in range(500):
                f = random_formula(rng, ab, max_len=60, mode=mode)
                _assert_text_walk_matches_node_walks(f)
                _assert_text_walk_matches_node_walks(parse(render(f), ab, mode))


def test_evaluate_matches_node_walks_on_corpus_words(ab):
    for t in enumerate_trees(4, ab):
        text = canonical_word(t)
        _assert_text_walk_matches_node_walks(parse(text, ab))
        _assert_text_walk_matches_node_walks(parse_by_index(text, ab))


def test_evaluate_matches_node_walks_on_large_words(ab):
    for text in large_words(4245):
        spaced = " ".join(text)
        for f in (parse(text, ab), parse(spaced, ab), parse_by_index(spaced, ab)):
            assert occurrence_count(f) >= 800
            _assert_text_walk_matches_node_walks(f)


def test_no_formula_to_evaluate_holds_an_unknown_letter(ab):
    with pytest.raises(UnknownSymbol):
        Formula((Unary(UnaryOp.STAR, Formula((Letter("z"),), ab)),), ab)


@given(formulas())
def test_edge_count_equals_occurrences(f):
    assert len(evaluate(f).edges) == occurrence_count(f)


@given(formulas(max_leaves=8), formulas(max_leaves=8))
def test_evaluate_distributes_over_concat(f, g):
    assert evaluate(concat(f, g)) == unpruned_product(evaluate(f), evaluate(g))


@given(trees(max_edges=5), trees(max_edges=5), trees(max_edges=5))
def test_unpruned_product_associative_exactly(x, y, z):
    assert unpruned_product(unpruned_product(x, y), z) == unpruned_product(
        x, unpruned_product(y, z)
    )


@given(formulas())
def test_validate_accepts_evaluate_output(f):
    t = evaluate(f)
    assert validate(t.vertex_count, t.start, t.end, t.edges, t.alphabet) == t


@given(trees())
def test_validate_accepts_unpruned_op_outputs(t):
    for out in (unpruned_plus(t), unpruned_star(t), unpruned_product(t, t)):
        assert validate(out.vertex_count, out.start, out.end, out.edges, out.alphabet) == out


def test_traversal_examples(ab):
    assert traversal(base_tree("a", ab)) == ((0, 1), (0, 1), (-1, 0), (-1, 0), (2, 1))
    # The b-edge into vertex 2 is read against its arrow: signed label 2 * 1 + 1.
    t = validate(3, 0, 1, [("a", 0, 1), ("b", 2, 0)], ab)
    assert traversal(t) == TraversalOrder((0, 1, 2), (0, 1, 2), (-1, 0, 0), (-1, 0, 3), (3, 1, 1))
    t = validate(3, 0, 2, [("a", 0, 1), ("a", 0, 2)], ab)
    assert traversal(t).order == (0, 1, 2)
    assert traversal(trivial_tree(ab)) == ((0,), (0,), (-1,), (-1,), (1,))


def test_traversal_view_fills_the_cache_the_algorithms_read(ab):
    t = evaluate(parse("a(b)+(a)*b", ab))
    assert "_traversal" not in vars(t)
    tr = traversal(t)
    assert "_traversal" in vars(t)
    assert traversal(t) == tr == traversal_by_iterators(t)
    # The adjacency list lives only inside the traversal build.
    canonical_word(t)
    prune(t)
    exists_morphism(t, t)
    assert set(vars(t)) == {"alphabet", "vertex_count", "start", "end", "edges", "_traversal", "_preimages"}


def test_traversal_is_an_immutable_copy_of_the_cache(ab):
    rng = Random(6062)
    cases = [trivial_tree(ab), evaluate(parse("a(b)+(a)*b", ab))]
    for t in cases + [random_tree(rng, k, ab) for k in (1, 5, 40)]:
        cached = t._traversal
        before = [list(field) for field in cached]
        tr = traversal(t)
        assert all(type(field) is tuple for field in tr)
        assert hash(tr) == hash(traversal(t)) and tr == traversal_by_iterators(t)
        assert type(cached) is TraversalOrder and all(type(field) is list for field in cached)
        assert tr._fields == ("order", "position", "up", "label", "size")
        assert [list(field) for field in tr] == [list(field) for field in cached] == before
        assert t._traversal is cached
    # The walk has one record: the view type and its label type are gone.
    for name in ("SignedLabel", "_Walk"):
        assert not hasattr(adequate, name) and not hasattr(adequate.tree, name)


def test_trunk_of_an_unvalidated_tree_needs_a_path_to_the_end(ab):
    with pytest.raises(NotATree):
        trunk(SigmaTree(ab, 3, 0, 2, (("a", 0, 1),)))


def test_evaluated_edges_are_plain_tuples_equal_to_edges(ab):
    t = evaluate(parse("a(b)+((a)*b)+", ab))
    assert all(type(e) is tuple for e in t.edges)
    wrapped = SigmaTree(ab, t.vertex_count, t.start, t.end, tuple(Edge(*e) for e in t.edges))
    assert t == wrapped and hash(t) == hash(wrapped)
    assert to_json(t) == to_json(wrapped) and to_dot(t) == to_dot(wrapped)


def test_every_constructor_keeps_plain_edge_tuples(ab):
    rng = Random(6061)
    x = random_tree(rng, 12, ab)
    y = evaluate(parse("a(b)+((a)*b)+", ab))
    made = [
        x,
        validate(y.vertex_count, y.start, y.end, [list(e) for e in y.edges], ab),
        from_json(to_json(x)),
        base_tree("b", ab),
        unpruned_product(x, y),
        unpruned_plus(x),
        unpruned_star(y),
        prune(unpruned_product(y, y)).tree,
        random_relabelling(rng, x),
    ]
    made += enumerate_trees(2, ab)
    for t in made:
        assert all(type(e) is tuple for e in t.edges)
        wrapped = SigmaTree(ab, t.vertex_count, t.start, t.end, tuple(Edge(*e) for e in t.edges))
        assert t == wrapped and hash(t) == hash(wrapped)
        assert to_json(t) == to_json(wrapped) and to_dot(t) == to_dot(wrapped)
    # validate still unpacks every item, so a malformed triple raises.
    with pytest.raises(ValueError):
        validate(2, 0, 1, [("a", 0)], ab)


@given(trees())
def test_traversal_parents_precede_children(t):
    tr = traversal(t)
    assert tr.order[0] == t.start
    assert all(tr.order[tr.position[v]] == v for v in range(t.vertex_count))
    for p in range(1, t.vertex_count):
        assert tr.up[p] < p < tr.up[p] + tr.size[tr.up[p]]


def test_traversal_matches_reference_on_random_trees():
    rng = Random(6060)
    for letters in ("ab", "abc"):
        alphabet = Alphabet.from_string(letters)
        for edges in [0, 1, 2, 300] + [rng.randrange(301) for _ in range(40)]:
            t = random_tree(rng, edges, alphabet)
            for tree in (t, random_relabelling(rng, t), unpruned_star(t)):
                assert traversal(tree) == traversal_by_iterators(tree)


def test_traversal_matches_reference_on_evaluated_trees(ab):
    rng = Random(6061)
    for _ in range(200):
        t = evaluate(random_formula(rng, ab, max_len=80))
        assert traversal(t) == traversal_by_iterators(t)


@pytest.mark.parametrize(
    "n, edges",
    [
        (4, [("a", 0, 1), ("b", 1, 2), ("a", 2, 0)]),  # a triangle; vertex 3 apart
        (3, [("a", 0, 1), ("b", 0, 1)]),  # two edges between the same vertices
        (3, [("a", 0, 1), ("a", 1, 0)]),
        (3, [("a", 0, 0), ("b", 0, 1)]),  # a loop
        (5, [("a", 0, 1), ("a", 1, 2), ("b", 2, 3), ("b", 3, 1)]),
    ],
)
def test_validate_rejects_cycles_with_tree_edge_count(ab, n, edges):
    assert len(edges) == n - 1
    with pytest.raises(NotATree):
        validate(n, 0, 0, edges, ab)


def test_trunk_examples(ab):
    assert trunk(base_tree("a", ab)) == ((0, 1), ("a",))
    assert trunk(evaluate(parse("(a)+", ab))) == ((0,), ())
    assert trunk(evaluate(parse("ab", ab))) == ((0, 1, 2), ("a", "b"))


def test_descendants_examples(ab):
    assert descendants(base_tree("a", ab), 1) == {1}
    t = evaluate(parse("(a(b)*)+", ab))
    assert descendants(t, 0) == {0, 1, 2}
    assert descendants(t, 1) == {1, 2}
    with pytest.raises(BadVertexId):
        descendants(t, 9)


@given(trees(max_edges=8))
def test_descendants_match_path_oracle(t):
    for u in range(t.vertex_count):
        assert descendants(t, u) == descendants_by_paths(t, u)


def test_json_round_trip(ab):
    t = evaluate(parse("(a)+a", ab))
    text = to_json(t)
    assert text == (
        '{"alphabet":"ab","n":3,"start":0,"end":2,'
        '"edges":[{"l":"a","s":0,"t":1},{"l":"a","s":0,"t":2}]}'
    )
    assert from_json(text) == t
    assert to_json(from_json(text)) == text


@given(trees())
def test_json_round_trip_random(t):
    assert from_json(to_json(t)) == t


def test_from_json_rejects_garbage(ab):
    with pytest.raises(json.JSONDecodeError):
        from_json("{nope")
    with pytest.raises(ValueError):
        from_json('{"alphabet":"ab","n":2}')
    with pytest.raises(NotATree):
        from_json('{"alphabet":"ab","n":3,"start":0,"end":0,"edges":[{"l":"a","s":0,"t":1}]}')


_BASE_JSON = {"alphabet": "ab", "n": 2, "start": 0, "end": 1, "edges": [{"l": "a", "s": 0, "t": 1}]}


@pytest.mark.parametrize("key", ["n", "start", "end", "s", "t"])
@pytest.mark.parametrize("value", [False, True, 1.0, "1", None, [1]])
def test_from_json_rejects_non_int_vertex_fields(key, value):
    obj = json.loads(json.dumps(_BASE_JSON))
    (obj["edges"][0] if key in ("s", "t") else obj)[key] = value
    with pytest.raises(ValueError, match="^malformed tree JSON: "):
        from_json(json.dumps(obj))


@pytest.mark.parametrize("label", ["", "ab", 1, None, ["a"]])
def test_from_json_rejects_bad_labels(label):
    obj = json.loads(json.dumps(_BASE_JSON))
    obj["edges"][0]["l"] = label
    with pytest.raises(ValueError, match="^malformed tree JSON: "):
        from_json(json.dumps(obj))


_DUPLICATE_OR_UNKNOWN_KEYS = [
    # json.loads alone keeps the last of two equal keys: this read as a b edge.
    ('{"alphabet":"ab","n":2,"start":0,"end":1,"edges":[{"l":"a","s":0,"t":1,"l":"b"}]}', "duplicate key 'l'"),
    ('{"alphabet":"ab","n":2,"n":2,"start":0,"end":1,"edges":[{"l":"a","s":0,"t":1}]}', "duplicate key 'n'"),
    ('{"alphabet":"ab","n":2,"start":0,"end":1,"edges":[{"l":"a","s":0,"t":1}],"x":1}', "unknown key 'x'"),
    ('{"x":1,"alphabet":"ab","n":2,"start":0,"end":1,"edges":[{"l":"a","s":0,"t":1}]}', "unknown key 'x'"),
    ('{"alphabet":"ab","n":2,"start":0,"end":1,"edges":[{"l":"a","s":0,"t":1,"L":"a"}]}', "unknown key 'L'"),
    ('{"alphabet":"ab","n":2,"start":0,"end":1,"edges":[{"l":"a","s":0,"t":1}],"edges":[]}', "duplicate key 'edges'"),
]


@pytest.mark.parametrize("text, why", _DUPLICATE_OR_UNKNOWN_KEYS)
def test_from_json_rejects_duplicate_and_unknown_keys(text, why):
    with pytest.raises(ValueError, match=f"^malformed tree JSON: {why}$"):
        from_json(text)


@pytest.mark.parametrize("edges", ["", {}, None])
def test_from_json_rejects_edges_that_are_not_a_list(edges):
    obj = {"alphabet": "ab", "n": 1, "start": 0, "end": 0, "edges": edges}
    with pytest.raises(ValueError, match="^malformed tree JSON: "):
        from_json(json.dumps(obj))


def test_from_json_raises_value_error_on_deep_nesting():
    with pytest.raises(ValueError, match="^malformed tree JSON: nested too deeply$"):
        from_json('{"alphabet":' + "[" * 5000 + "]" * 5000 + "}")


def test_from_json_loads_the_one_vertex_tree(ab):
    text = '{"alphabet":"ab","n":1,"start":0,"end":0,"edges":[]}'
    assert from_json(text) == trivial_tree(ab)
    assert to_json(from_json(text)) == text


@pytest.mark.parametrize("alphabet", [["a", "b"], {"a": 0, "b": 1}, None])
def test_from_json_rejects_non_string_alphabet(alphabet):
    obj = dict(_BASE_JSON, alphabet=alphabet)
    with pytest.raises(ValueError, match="^malformed tree JSON: "):
        from_json(json.dumps(obj))


def test_dot_export(ab):
    dot = to_dot(evaluate(parse("(a)+a", ab)))
    assert "0 [shape=diamond];" in dot
    assert "2 [shape=doublecircle];" in dot
    assert '0 -> 1 [label="a"];' in dot
    looped = to_dot(evaluate(parse("(a)+", ab)))
    assert "0 [shape=diamond, peripheries=3];" in looped
