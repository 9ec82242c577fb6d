"""A prediction depends only on the parameters, the observed context and
its own cell: pools that read only the context, the tail pass over the
query cells, and the memo that reuses a prepared context across calls."""

import dataclasses
import re
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from functools import cache

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import assert_bitwise_equal, random_sparse, termwise_fea_tail
from test_acceptance import FEA_CONFIG as FEA07

from exchtensor import data, layers, training
from exchtensor.autodiff import (
    apply_nonlinearity, backward, forward, pooled_means,
)
from exchtensor.checkpoint import load_checkpoint, save_checkpoint
from exchtensor.data import (
    FIVE_STAR, RatingScale, RatingsTable, canonical_split, encode_onehot,
    synthetic_lowrank_table,
)
from exchtensor.layers import (
    broadcast_factors, exchangeable_tensor_layer, pooling_groups,
)
from exchtensor.models import (
    ModelConfig, build_ss_loss_graph, fea_encode, init_params, named_arrays,
    self_supervised_forward, union_with_zeros, with_named_arrays,
)
from exchtensor.sparse import cell_keys, lookup
from exchtensor.training import TrainConfig, evaluate, train

SS = ModelConfig(
    architecture="self-supervised", levels=5, widths=(6, 6, 5),
    nonlinearity="leaky_relu", dropout_rate=0.5,
    dropout_placement=frozenset({1}), mask_prob=0.3,
)
FEA = ModelConfig(
    architecture="fea", levels=5, encoder_widths=(6, 4),
    decoder_widths=(6, 5), nonlinearity="leaky_relu", dropout_rate=0.5,
    dropout_placement=frozenset({1}), mask_prob=0.0, factor_size=4,
)
CONFIGS = pytest.mark.parametrize("config", [SS, FEA], ids=["ss", "fea"])


def split():
    """(context, query, other unobserved cells) of one 12x10 table."""
    table = synthetic_lowrank_table(12, 10, observed_fraction=0.6, seed=4)
    return canonical_split(table, "random", fraction=0.3, seed=1,
                           val_fraction=0.2)


def concat(a: RatingsTable, b: RatingsTable) -> RatingsTable:
    return dataclasses.replace(
        a, u_index=np.concatenate([a.u_index, b.u_index]),
        i_index=np.concatenate([a.i_index, b.i_index]),
        ratings=np.concatenate([a.ratings, b.ratings]))


def without_user(table: RatingsTable, user: int) -> RatingsTable:
    return table.subset(np.flatnonzero(table.u_index != user))


def only_user(table: RatingsTable, user: int) -> RatingsTable:
    return table.subset(np.flatnonzero(table.u_index == user))


class TestQueryIndependence:
    """Permuting, chunking or padding the other query cells moves no
    prediction; relabeling context and query together moves none."""

    @CONFIGS
    def test_other_query_cells_move_no_prediction(self, config):
        context, query, pad = split()
        params = init_params(config, seed=5)
        whole = evaluate(config, params, context, query).predictions
        chunked = evaluate(config, params, context, query,
                           cell_budget=1).predictions
        perm = np.random.default_rng(0).permutation(query.n_ratings)
        permuted = np.empty_like(whole)
        permuted[perm] = evaluate(config, params, context,
                                  query.subset(perm)).predictions
        padded = evaluate(config, params, context,
                          concat(query, pad)).predictions[:query.n_ratings]
        for other in (chunked, permuted, padded):
            assert_allclose(other, whole, rtol=0, atol=1e-12)

    @CONFIGS
    def test_relabeling_context_and_query_together(self, config):
        context, query, _ = split()
        params = init_params(config, seed=5)
        rng = np.random.default_rng(1)
        pu, pi = rng.permutation(context.n_users), rng.permutation(context.n_items)

        def relabel(t):
            return dataclasses.replace(t, u_index=pu[t.u_index],
                                       i_index=pi[t.i_index])

        want = evaluate(config, params, context, query).predictions
        got = evaluate(config, params, relabel(context),
                       relabel(query)).predictions
        assert_allclose(got, want, rtol=0, atol=1e-12)


def softmax_at(g, loss_node, bindings, rows):
    """The distributions of a training graph's logits at ``rows``."""
    (loss,) = [n for n in g.nodes if n.name == loss_node]
    return apply_nonlinearity(forward(g, bindings)[loss.operands[0]],
                              "softmax")[rows]


class TestTailPass:
    def test_ss_tail_is_the_stack_whose_pools_skip_the_query(self):
        """The self-supervised tail equals the training graph's stack over
        context and zero-filled query cells, the query out of context."""
        context, query, _ = split()
        params = init_params(SS, seed=5)
        x = encode_onehot(context)
        q = query.indices()
        union = union_with_zeros(x, q)
        at = union.find(q)
        in_context = np.ones(union.n_observed, dtype=bool)
        in_context[at] = False
        want = softmax_at(*build_ss_loss_graph(
            union, params.layers, union.values, None, context=in_context), at)
        got = params.predict(SS, params.prepare(SS, x), q)
        assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_ss_training_pools_skip_the_masked_cells(self):
        params = init_params(SS, seed=5)
        batch = encode_onehot(split()[0])
        g, loss_node, _ = params.loss_graph(SS, batch, {}, seed=3)
        (loss,) = [n for n in g.nodes if n.name == loss_node]
        masked = loss.attrs["row_weights"] > 0
        assert masked.any() and not masked.all()
        layers = [n for n in g.nodes if n.op == "equivariant_layer"]
        assert len(layers) == len(SS.widths)
        for node in layers:
            for groups in node.attrs["groups"]:
                assert_array_equal(groups.context, ~masked)

    def test_fea_tail_pools_each_query_cell_with_the_context_and_itself(self):
        context, query, _ = split()
        params = init_params(FEA, seed=5)
        x = encode_onehot(context)
        q = query.indices()
        got = params.predict(FEA, params.prepare(FEA, x), q)
        factors = fea_encode(x, FEA, params).imputed()
        h = broadcast_factors(factors, x)
        inputs = []
        for lp in params.decoder:
            inputs.append(h.values)
            h = exchangeable_tensor_layer(h, lp)
        for k, (r, c) in enumerate(q):
            y = np.concatenate([factors.z_rows[r], factors.z_cols[c]])
            pools = {frozenset({0}): x.indices[:, 0] == r,
                     frozenset({1}): x.indices[:, 1] == c,
                     frozenset(): np.ones(x.n_observed, dtype=bool)}
            for lp, h_ctx in zip(params.decoder, inputs):
                out = y @ lp.blocks[frozenset({0, 1})] + lp.bias
                for S, sel in pools.items():
                    pooled = (h_ctx[sel].sum(axis=0) + y) / (sel.sum() + 1)
                    out = out + pooled @ lp.blocks[S]
                y = apply_nonlinearity(out[None], lp.nonlinearity, lp.slope)[0]
            assert_allclose(got[k], y, rtol=0, atol=1e-12)


@cache
def task(name):
    """(context, query cells) of an ML-100k-shaped table (943x1682, ~75k
    context cells, 2,000 of its test cells) or of the criterion-07 task
    (630 context cells, its 180 test cells)."""
    if name == "ml100k-shaped":
        table = synthetic_lowrank_table(943, 1682, observed_fraction=0.063,
                                        seed=3)
        context, query, _ = canonical_split(table, "random", fraction=0.2,
                                            seed=3, val_fraction=0.05)
    else:
        context, query, _ = canonical_split(
            synthetic_lowrank_table(seed=7), "random", fraction=0.2, seed=0,
            val_fraction=0.1)
    return encode_onehot(context), query.indices()[:2000]


def in_dtype(params, dtype):
    return with_named_arrays(params, {
        k: a.astype(dtype) for k, a in named_arrays(params).items()})


class TestFeaTailMixedOnce:
    """The tail pass mixes each layer's context sums once per context and
    folds the global subset; it matches the term-by-term formula it
    replaced to rounding.  In float32, a few ulps of a probability: the
    largest difference measured was 6e-8 here and 3.3e-7 on a fitted
    criterion-07 model."""

    @pytest.mark.parametrize("precision, atol",
                             [("float64", 1e-12), ("float32", 1e-6)])
    @pytest.mark.parametrize("name", ["ml100k-shaped", "criterion-07"])
    def test_matches_the_termwise_formula(self, name, precision, atol):
        x, q = task(name)
        for seed in (0, 1):
            params = in_dtype(init_params(FEA07, seed=seed), precision)
            got = params.predict(FEA07, params.prepare(FEA07, x), q)
            want = termwise_fea_tail(FEA07, params, x, q)
            assert got.dtype == want.dtype == np.dtype(precision)
            assert_allclose(got, want, rtol=0, atol=atol)


class TestGroupMaps:
    """A prepared context reads a query cell's groups from dense maps,
    as the binary search of the groups' keys that it replaced found them."""

    @staticmethod
    def cold_context():
        """A context without user 3 and item 2, and query cells over
        every cell it lacks, among them (3, 2), cold on both axes."""
        context, query, _ = split()
        context = context.subset(np.flatnonzero(
            (context.u_index != 3) & (context.i_index != 2)))
        x = encode_onehot(context)
        every = np.argwhere(np.ones(x.dims, dtype=bool))
        return x, every[x.find(every) < 0]

    @CONFIGS
    def test_maps_find_what_the_search_found(self, config):
        x, q = self.cold_context()
        assert ((q[:, 0] == 3) & (q[:, 1] == 2)).any()
        prepared = init_params(config, seed=5).prepare(config, x)
        groups = pooling_groups(x)
        got = prepared.group_at(q)
        assert [S for S, _, _ in prepared.groups] == list(groups)
        for (S, _, _), at in zip(prepared.groups, got):
            want = lookup(groups[S].flat_keys,
                          cell_keys(q, x.dims, sorted(S)))
            assert_array_equal(at, want)
        by_col, by_row, _ = got  # the subsets {1}, {0} and {}
        assert_array_equal(by_row == -1, q[:, 0] == 3)
        assert_array_equal(by_col == -1, q[:, 1] == 2)

    @CONFIGS
    @pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (12, 0), (0, 10),
                                      (-12, -10), (25, 3)])
    def test_a_cell_outside_the_dims_is_named(self, config, cell):
        x, q = self.cold_context()
        params = init_params(config, seed=5)
        prepared = params.prepare(config, x)
        cells = np.concatenate([q[:2], [cell], q[2:]])
        message = rf"cell \({cell[0]}, {cell[1]}\) out of bounds for dims " \
                  r"\(12, 10\)"
        with pytest.raises(ValueError, match=message):
            prepared.group_at(cells)
        with pytest.raises(ValueError, match=message):
            params.predict(config, prepared, cells)

    @CONFIGS
    @pytest.mark.parametrize("malformed", [
        lambda q: np.concatenate([q, q[:, :1]], axis=1),  # (m, 3)
        lambda q: q[:, 0],
        lambda q: q[:, :1],
        lambda q: q.astype(np.float64),
        lambda q: q.astype(bool),
    ], ids=["m-by-3", "m", "m-by-1", "float", "bool"])
    def test_a_malformed_query_is_refused(self, config, malformed):
        """Only an (m, 2) integer array is a query of a matrix: a third
        column is not ignored, nor a bool array read as 0s and 1s."""
        x, q = self.cold_context()
        params = init_params(config, seed=5)
        prepared = params.prepare(config, x)
        cells = malformed(q)
        message = (rf"query cells must be an \(m, 2\) integer array, got "
                   rf"shape {re.escape(str(cells.shape))} and dtype "
                   rf"{cells.dtype}")
        with pytest.raises(ValueError, match=message):
            prepared.group_at(cells)
        with pytest.raises(ValueError, match=message):
            params.predict(config, prepared, cells)

    @CONFIGS
    def test_an_int32_query_predicts_as_an_int64_one(self, config):
        x, q = self.cold_context()
        params = init_params(config, seed=5)
        prepared = params.prepare(config, x)
        assert_bitwise_equal(
            params.predict(config, prepared, q.astype(np.int32)),
            params.predict(config, prepared, q.astype(np.int64)))


class TestNoContextCell:
    """A row or column with no context cell pools to 0; predictions stay
    finite distributions, with no warning (tier-1 makes one an error)."""

    @CONFIGS
    def test_a_query_user_without_observed_ratings(self, config):
        context, query, _ = split()
        cold = 3
        query = concat(only_user(context, cold), only_user(query, cold))
        context = without_user(context, cold)
        params = init_params(config, seed=5)
        x = encode_onehot(context)
        prepared = params.prepare(config, x)
        q = query.indices()
        assert (prepared.group_at(q)[1] == -1).all()  # the row groups
        dist = params.predict(config, prepared, q)
        assert np.isfinite(dist).all() and (dist >= 0).all()
        assert_allclose(dist.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        preds = evaluate(config, params, context, query).predictions
        assert np.isfinite(preds).all()

    def test_a_training_batch_with_a_whole_row_masked(self):
        params = init_params(SS, seed=5)
        batch = encode_onehot(split()[0])
        in_context = batch.indices[:, 0] != 2
        x_in = batch.with_values(np.where(in_context[:, None], batch.values, 0.0))
        g, loss, bindings = build_ss_loss_graph(
            x_in, params.layers, batch.values, (~in_context).astype(float),
            context=in_context)
        values = forward(g, bindings)
        grads = backward(g, values, loss)
        assert np.isfinite(values[loss])
        assert all(np.isfinite(d).all() for d in grads.values())
        by_row = pooling_groups(batch)[frozenset({0})]
        row = int(np.flatnonzero(by_row.flat_keys == 2)[0])
        for node in (n for n in g.nodes if n.op == "equivariant_layer"):
            means = values[node.name, "means"][1]  # the row pool's
            assert (means[row] == 0).all()


class TestContextPools:
    def test_the_whole_index_set_is_the_grouping_itself(self):
        t = random_sparse((5, 6), 2, 17, np.random.default_rng(0))
        g = t.groups([0])
        assert g.with_context(None) is g
        assert g.with_context(np.ones(17, dtype=bool)) is g
        masked = g.with_context(np.arange(17) % 3 > 0)
        assert masked.with_context(None).context is None

    @pytest.mark.parametrize("axes", [(0,), (1,), ()])
    def test_means_over_the_context_cells_zero_for_none(self, axes):
        rng = np.random.default_rng(2)
        t = random_sparse((5, 6), 3, 20, rng)
        context = rng.random(20) < 0.5
        context[t.indices[:, 0] == t.indices[0, 0]] = False  # an empty row
        g = t.groups(axes).with_context(context)
        (means,) = pooled_means(t.values, [g])
        for k, key in enumerate(g.flat_keys):
            same = cell_keys(t.indices, t.dims, axes) == key
            sel = same & context
            want = t.values[sel].mean(axis=0) if sel.any() else 0.0
            assert g.counts[k] == sel.sum()
            assert_allclose(means[k], want, rtol=0, atol=1e-15)
        # the gradient pools sum every member, the context copy's too
        assert_array_equal(g.operator(np.float64, context=False) @ t.values,
                           t.groups(axes).operator(np.float64) @ t.values)
        # the pool's transpose: <means(x), d> == <x, spread(d / counts)>
        d = rng.normal(size=(g.n_groups, 3))
        assert_allclose((means * d).sum(),
                        (t.values * g.spread(d / g.divisor[:, None])).sum(),
                        rtol=1e-13)


@pytest.fixture
def counted(monkeypatch):
    """An empty memo, and counts of context passes and one-hot encodings."""
    monkeypatch.setattr(training, "_memo", [])
    calls = {"prepare": 0, "encode": 0}
    real_prepare, real_encode = training._prepare_context, training.encode_onehot

    def prepare(*args):
        calls["prepare"] += 1
        return real_prepare(*args)

    def encode(*args):
        calls["encode"] += 1
        return real_encode(*args)

    monkeypatch.setattr(training, "_prepare_context", prepare)
    monkeypatch.setattr(training, "encode_onehot", encode)
    return calls


class TestMemo:
    @CONFIGS
    def test_an_equal_reload_reuses_the_context_pass(self, config, tmp_path,
                                                      counted):
        path = tmp_path / "model.exchk"
        save_checkpoint(path, config, init_params(config, seed=5), FIVE_STAR)
        runs = []
        for _ in range(2):
            context, query, _ = split()  # fresh tables, equal content
            ck = load_checkpoint(path)
            runs.append(evaluate(ck.config, ck.params, context, query).predictions)
        assert_bitwise_equal(runs[1], runs[0])
        assert counted == {"prepare": 1, "encode": 1}

    def test_a_changed_parameter_byte_or_rating_recomputes(self, counted):
        context, query, _ = split()
        params = init_params(SS, seed=5)
        evaluate(SS, params, context, query)
        arrays = {k: v.copy() for k, v in named_arrays(params).items()}
        arrays["layer2.w0"].view(np.uint8)[0] ^= 1
        evaluate(SS, with_named_arrays(params, arrays), context, query)
        ratings = context.ratings.copy()
        ratings[0] = 1.0 if ratings[0] != 1.0 else 2.0
        evaluate(SS, params, dataclasses.replace(context, ratings=ratings), query)
        assert counted["prepare"] == 3
        evaluate(SS, params, context, query)
        assert counted["prepare"] == 3

    def test_a_changed_cell_scale_or_dims_recomputes(self, counted):
        """Each table field ``prepare`` reads is in the key: one moved
        cell in ``u_index`` or ``i_index``, another scale, one more user
        or item each run a new context pass."""
        context, query, _ = split()
        # no 5-star rating, so a scale whose top level is 4.5 holds them
        context = context.subset(np.flatnonzero(context.ratings < 5))
        params = init_params(SS, seed=5)
        taken = {tuple(c) for c in concat(context, query).indices().tolist()}

        def moved(axis):
            """The table with its first cell moved along ``axis`` onto a
            cell that neither it nor the query holds."""
            index = ("u_index", "i_index")[axis]
            column = getattr(context, index).copy()
            cell = context.indices()[0].tolist()
            column[0] = next(
                k for k in range((context.n_users, context.n_items)[axis])
                if (*cell[:axis], k, *cell[axis + 1:]) not in taken)
            return dataclasses.replace(context, **{index: column})

        users = context.users + ("new",)
        items = context.items + ("new",)
        # a query is scored on its context's scale, so it moves with it
        other = RatingScale((1, 2, 3, 4, 4.5))
        variants = [
            (moved(0), query), (moved(1), query),
            (dataclasses.replace(context, scale=other),
             dataclasses.replace(query, scale=other,
                                 ratings=np.minimum(query.ratings, 4.5))),
            (dataclasses.replace(context, users=users),
             dataclasses.replace(query, users=users)),
            (dataclasses.replace(context, items=items),
             dataclasses.replace(query, items=items)),
        ]
        evaluate(SS, params, context, query)
        for k, (observed, asked) in enumerate(variants, 2):
            evaluate(SS, params, observed, asked)
            assert counted["prepare"] == k
        evaluate(SS, params, *variants[-1])
        assert counted["prepare"] == len(variants) + 1

    def test_the_key_covers_every_table_field(self):
        """A new RatingsTable field fails here until someone decides
        whether the memo's table match covers it.  The cells, ratings
        and scale enter as they are; ``users`` and ``items`` only by
        their lengths, the dims, since ``prepare`` reads no id."""
        assert [f.name for f in dataclasses.fields(RatingsTable)] == [
            "u_index", "i_index", "ratings", "scale", "users", "items"]

    def test_no_request_hashes_a_table(self, counted, monkeypatch):
        """The memo compares content instead of hashing it: a miss, a
        hit, and a hit with an equal fresh table make no digest."""
        calls = []
        real = data._array_digest

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(data, "_array_digest", spy)
        context, query, _ = split()
        params = init_params(SS, seed=5)
        evaluate(SS, params, context, query)
        evaluate(SS, params, context, query)
        evaluate(SS, params, split()[0], query)
        assert counted["prepare"] == 1
        assert not calls

    def test_a_parameter_differing_in_a_zero_sign_recomputes(self, counted):
        """Parameters match bit for bit, as under a hash of their bytes:
        -0.0 is not 0.0 there, though the two compare equal."""
        context, query, _ = split()
        params = init_params(SS, seed=5)
        arrays = {k: v.copy() for k, v in named_arrays(params).items()}
        arrays["layer2.w0"].flat[0] = 0.0
        evaluate(SS, with_named_arrays(params, arrays), context, query)
        arrays = {k: v.copy() for k, v in arrays.items()}
        arrays["layer2.w0"].flat[0] = -0.0
        evaluate(SS, with_named_arrays(params, arrays), context, query)
        assert counted["prepare"] == 2

    def test_the_same_cells_in_another_order_recompute(self, counted):
        """A table matches its cells in order, as the digest hashed them."""
        context, query, _ = split()
        params = init_params(SS, seed=5)
        evaluate(SS, params, context, query)
        order = np.random.default_rng(0).permutation(context.n_ratings)
        evaluate(SS, params, context.subset(order), query)
        assert counted["prepare"] == 2

    def test_a_hit_lets_go_of_an_equal_older_table(self, counted):
        """A hit with an equal fresh table moves every entry over that
        table onto the fresh one, so the memo keeps no table that its
        callers dropped."""
        context, query, _ = split()
        params = init_params(SS, seed=5)
        evaluate(SS, params, context, query)
        evaluate(FEA, init_params(FEA, seed=5), context, query)
        old = weakref.ref(context)
        context = split()[0]
        evaluate(SS, params, context, query)
        assert counted["prepare"] == 2
        assert old() is None
        assert all(e.table is context for e in training._memo)

    def test_concurrent_misses_leave_one_entry(self, counted, monkeypatch):
        """Two threads that miss on equal content both run the context
        pass; the second to finish finds the first's entry and keeps it."""
        context, query, _ = split()
        params = init_params(SS, seed=5)
        both_missed = threading.Barrier(2, timeout=60)
        prepare = training._prepare_context

        def prepare_after_both_missed(*args):
            both_missed.wait()
            return prepare(*args)

        monkeypatch.setattr(training, "_prepare_context",
                            prepare_after_both_missed)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(evaluate, SS, params, context, query)
                       for _ in range(2)]
            got = [f.result(timeout=120).predictions for f in futures]
        assert counted["prepare"] == 2
        assert len(training._memo) == 1
        assert_bitwise_equal(got[1], got[0])

    def test_the_memo_keeps_its_last_entries_only(self, counted):
        context, query, _ = split()
        n = training.MEMO_ENTRIES + 2
        for seed in range(n):
            evaluate(SS, init_params(SS, seed=seed), context, query)
            assert len(training._memo) <= training.MEMO_ENTRIES
        assert counted["prepare"] == n
        evaluate(SS, init_params(SS, seed=n - 1), context, query)
        assert counted["prepare"] == n
        evaluate(SS, init_params(SS, seed=0), context, query)
        assert counted["prepare"] == n + 1
        assert len(training._memo) == training.MEMO_ENTRIES

    def test_a_hit_still_refuses_observed_query_cells(self, counted):
        context, query, _ = split()
        params = init_params(SS, seed=5)
        evaluate(SS, params, context, query)
        with pytest.raises(ValueError, match="query cells are already observed"):
            evaluate(SS, params, context, concat(query, context.subset([0])))
        assert counted["prepare"] == 1

    @CONFIGS
    def test_a_refused_request_costs_nothing(self, config, counted):
        """The two tables alone decide a refusal: no encoding, no context
        pass, and the memo as it was, whether it misses or hits."""
        context, query, _ = split()
        params = init_params(config, seed=5)
        other = RatingScale((1, 2, 3, 4, 4.5))
        empty = np.array([], dtype=np.int64)
        refused = {  # message: (observed, query)
            "observed table is empty": (context.subset(empty), query),
            "query table is empty": (context, query.subset(empty)),
            "users and items": (context, dataclasses.replace(
                query, users=query.users + ("new",))),
            "rating scale": (context, dataclasses.replace(
                query, scale=other, ratings=np.minimum(query.ratings, 4.5))),
            "already observed": (context,
                                 concat(query, context.subset([0]))),
        }

        def refuse_all():
            for match, (observed, asked) in refused.items():
                with pytest.raises(ValueError, match=match):
                    evaluate(config, params, observed, asked)

        refuse_all()
        assert counted == {"prepare": 0, "encode": 0}
        assert not training._memo
        evaluate(config, params, context, query)

        def held():
            return [(e, e.config, e.arrays, e.table, e.prepared)
                    for e in training._memo]

        kept = held()
        refuse_all()
        assert counted == {"prepare": 1, "encode": 1}
        assert all(a is b for now, was in zip(held(), kept, strict=True)
                   for a, b in zip(now, was))

    @CONFIGS
    def test_train_refuses_a_bad_validation_table_before_encoding(
            self, config, counted):
        context, query, _ = split()
        with pytest.raises(ValueError, match="validation cells are already"):
            train(config, TrainConfig(epochs=1), context,
                  concat(query, context.subset([0])))
        assert counted == {"prepare": 0, "encode": 0}

    def test_threads_share_the_memo(self, counted):
        """More callers than cores and more models than memo entries,
        with the interpreter switching threads every microsecond, on an
        equal fresh table that the threads' lookups race to move the
        entries onto: every prediction is the sequential one, and the
        memo keeps its bound."""
        context, query, _ = split()
        models = [(c, init_params(c, seed=s)) for c in (SS, FEA) for s in range(3)]
        want = [evaluate(c, p, context, query).predictions for c, p in models]
        training._memo.clear()
        context = split()[0]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(evaluate, c, p, context, query)
                           for _ in range(3) for c, p in models]
                got = [f.result(timeout=120).predictions for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for k, preds in enumerate(got):
            assert_bitwise_equal(preds, want[k % len(models)])
        assert len(training._memo) <= training.MEMO_ENTRIES


class TestOneDtype:
    """A model runs in its parameters' dtype at every entry point, so
    ``evaluate`` answers a validation request as ``train`` did."""

    @CONFIGS
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_evaluate_reproduces_the_best_validation_rmse(self, config,
                                                          precision):
        context, query, _ = split()
        tc = TrainConfig(epochs=4, seed=2, precision=precision)
        report, best = train(config, tc, context, query)
        assert named_arrays(best)["dec1.bias" if config is FEA
                                  else "layer1.bias"].dtype == tc.dtype
        assert evaluate(config, best, context, query).rmse \
            == report.best_val_rmse

    @CONFIGS
    def test_float32_params_compute_in_float32_on_float64_input(self, config):
        x64 = encode_onehot(split()[0])
        x32 = x64.with_values(x64.values.astype(np.float32))
        params = with_named_arrays(init_params(config, seed=5), {
            k: a.astype(np.float32)
            for k, a in named_arrays(init_params(config, seed=5)).items()})
        q = split()[1].indices()
        runs = [params.predict(config, params.prepare(config, x), q)
                for x in (x64, x32)]
        assert runs[0].dtype == np.float32
        assert_bitwise_equal(runs[0], runs[1])
        if config is SS:
            out = [self_supervised_forward(x, config, params).values
                   for x in (x64, x32)]
        else:
            out = [fea_encode(x, config, params).z_rows for x in (x64, x32)]
        assert out[0].dtype == np.float32
        assert_bitwise_equal(out[0], out[1])

    @CONFIGS
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_a_fit_levels_its_context_once(self, config, precision,
                                           monkeypatch):
        """``train``'s context is in the training dtype already, so each
        validation's ``prepare`` reads it as it is: its one-hot levels,
        computed before the first epoch, are not computed again."""
        leveled = []
        real = layers._one_hot_levels

        def spy(x):
            if x.shape[0] > 1:  # not the first-row check
                leveled.append(x.shape)
            return real(x)

        monkeypatch.setattr(layers, "_one_hot_levels", spy)
        context, query, _ = split()
        train(config, TrainConfig(epochs=3, precision=precision), context,
              query)
        assert leveled == [(context.n_ratings, config.levels)]
