"""Multi-component PPM-D variable-order Markov model over zone ids.

A zone id like "C-17.3D" is split into four components: the full id plus
the first three alphanumeric tokens ("C", "17", "3D"). One context model
is trained per component and their predictions are blended with fixed
weights (default 0.25 each).

Per-context probabilities follow the PPM-D escape rule: a symbol seen c
times out of t in a context gets (2c - 1) / (2t); the escape event gets
d / (2t) where d is the number of distinct successors. On escape the
context is shortened by one symbol; below order 0 the distribution is
uniform over the vocabulary plus one unseen-symbol slot. No exclusion is
applied when backing off.
"""

from __future__ import annotations

import re
import reprlib
import struct
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import DEPOT_ZONE, ValidationError, write_file

EMPTY_TOKEN = "∅"  # pads missing components
N_COMPONENTS = 4
DEFAULT_ORDER = 5
MAX_ORDER = 0xFFFF  # the model file stores max_order as a u16
DEFAULT_WEIGHTS = (0.25, 0.25, 0.25, 0.25)

_TOKEN_RE = re.compile(r"[0-9A-Za-z]+")

Context = Tuple[str, ...]
Chain = Tuple[List[Tuple[Dict[str, int], int, float]], float]


def check_weights(weights: Sequence[float]) -> Sequence[float]:
    """`weights`, if they are N_COMPONENTS non-negative numbers summing to 1."""
    if len(weights) != N_COMPONENTS:
        raise ValidationError(f"expected {N_COMPONENTS} component weights, got {len(weights)}")
    if not abs(sum(weights) - 1.0) <= 1e-12:  # NaN fails too
        raise ValidationError(f"component weights {tuple(weights)} do not sum to 1")
    if any(w < 0 for w in weights):
        raise ValidationError("component weights must be non-negative")
    return weights


def check_order(max_order: int) -> int:
    """`max_order`, if it fits the model file's u16 and is at least 1."""
    if not 1 <= max_order <= MAX_ORDER:
        raise ValidationError(f"max_order must be in 1..{MAX_ORDER}, got {max_order}")
    return max_order


@lru_cache(maxsize=None)
def tokenize_zone(zone_id: str) -> Tuple[str, str, str, str]:
    """Split a zone id into its four component tokens.

    Component 0 is the full id; components 1-3 are the first three maximal
    alphanumeric runs, padded with the empty sentinel when absent. Runs
    beyond the third are discarded.
    """
    if not zone_id:
        raise ValidationError("cannot tokenize an empty zone id")
    runs = _TOKEN_RE.findall(zone_id)[:3]
    runs += [EMPTY_TOKEN] * (3 - len(runs))
    return (zone_id, runs[0], runs[1], runs[2])


@dataclass
class PpmModel:
    """Trained counts for the four component models plus blend weights.

    ``counts[k]`` maps a context tuple (length 0..max_order) to the
    successor-count dict for component k; every count is a positive int.
    ``vocab[k]`` holds every token in component k's contexts and tables,
    the vocabulary below order 0. Immutable by convention once
    training returns, as suffixes and escape chains are memoised; safe for
    concurrent readers.
    """

    max_order: int
    weights: Tuple[float, float, float, float]
    counts: List[Dict[Context, Dict[str, int]]]
    vocab: List[set] = field(init=False, compare=False)
    _suffixes: List[Dict[Context, Context]] = field(init=False, repr=False, compare=False)
    _chains: List[Dict[Context, Chain]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_order(self.max_order)
        check_weights(self.weights)
        if len(self.counts) != N_COMPONENTS:
            raise ValidationError(f"expected {N_COMPONENTS} count tables, got {len(self.counts)}")
        for k, tables in enumerate(self.counts):
            for ctx, table in tables.items():
                for token, count in table.items():
                    # PPM-D divides by a table's total and counts its entries
                    if type(count) is not int or count < 1:
                        what = "a zero" if count == 0 else f"a non-positive-integer {count!r}"
                        raise ValidationError(
                            f"component {k} context {ctx!r} has {what} count for {token!r}"
                        )
        self.vocab = [set().union(*tables, *tables.values()) for tables in self.counts]
        self._suffixes = [{} for _ in range(N_COMPONENTS)]
        self._chains = [{} for _ in range(N_COMPONENTS)]

    # -- probability queries -------------------------------------------------

    def component_prob(self, k: int, context: Sequence[str], token: str) -> float:
        """PPM-D probability of `token` for component k given token context.

        Only the last max_order context tokens are used. Contexts with no
        recorded successors are skipped without charging an escape.
        """
        ctx = tuple(context[-self.max_order:])
        return _chain_prob(self._chain(k, self._suffix(k, ctx)), token)

    def _suffix(self, k: int, ctx: Context) -> Context:
        """Longest suffix of `ctx` with a non-empty component-k table, else ().

        That is `ctx` if its table is non-empty, else the suffix of ctx[1:].
        Memoised on every context on that walk, for all routes of the model.
        """
        memo, tables = self._suffixes[k], self.counts[k]
        suffix = memo.get(ctx)
        walked = []
        while suffix is None:
            if not ctx or tables.get(ctx):
                suffix = memo[ctx] = ctx
            else:
                walked.append(ctx)
                ctx = ctx[1:]
                suffix = memo.get(ctx)
        for longer in walked:
            memo[longer] = suffix
        return suffix

    def _chain(self, k: int, suffix: Context) -> Chain:
        """Component k's escape chain from `suffix`, memoised on `suffix` only.

        The links are (table, total, escape product before it) for each
        non-empty table from `suffix` down to order 0, then the uniform floor.
        One chain per recorded context, shared by every route of the model.
        """
        chain = self._chains[k].get(suffix)
        if chain is None:
            links = []
            acc = 1.0
            for start in range(len(suffix) + 1):
                table = self.counts[k].get(suffix[start:])
                if not table:
                    continue
                t = sum(table.values())
                links.append((table, t, acc))
                acc *= len(table) / (2 * t)
            chain = self._chains[k][suffix] = (links, acc / (len(self.vocab[k]) + 1))
        return chain

    def prob(
        self,
        context: Sequence[str],
        candidate: str,
        cache: Optional[dict] = None,
    ) -> float:
        """Blended probability of observing `candidate` after `context`.

        `context` and `candidate` are zone ids (the depot sentinel included
        by the caller where applicable). Always strictly positive, so novel
        zone ids remain rankable. An optional dict memoizes repeated
        queries within one inference run.
        """
        key = None
        if cache is not None:
            key = (tuple(context[-self.max_order:]), candidate)
            hit = cache.get(key)
            if hit is not None:
                return hit
        ctx_comp = [tokenize_zone(z) for z in context[-self.max_order:]]
        cand_comp = tokenize_zone(candidate)
        p = 0.0
        for k, w in enumerate(self.weights):
            if w == 0.0:
                continue
            p += w * self.component_prob(k, [c[k] for c in ctx_comp], cand_comp[k])
        if cache is not None:
            cache[key] = p
        return p

    # -- serialization -------------------------------------------------------

    MAGIC = b"ZPPM"
    VERSION = 1

    def save(self, path) -> None:
        """Write the model atomically as a versioned, sorted, length-prefixed binary.

        A token the format cannot hold is a ValidationError, and no file is written.
        """
        out = [self.MAGIC, struct.pack("<HH", self.VERSION, self.max_order)]
        out.append(struct.pack("<4d", *self.weights))
        for k in range(N_COMPONENTS):
            triples = []
            for ctx in sorted(self.counts[k]):
                for token in sorted(self.counts[k][ctx]):
                    triples.append((ctx, token, self.counts[k][ctx][token]))
            out.append(struct.pack("<I", len(triples)))
            try:
                for ctx, token, count in triples:
                    out.append(struct.pack("<H", len(ctx)))
                    for tok in ctx + (token,):
                        raw = tok.encode("utf-8")
                        out.append(struct.pack("<H", len(raw)) + raw)
                    out.append(struct.pack("<Q", count))
            except (UnicodeEncodeError, struct.error):
                raise ValidationError(
                    f"component {k} token {reprlib.repr(tok)} cannot be stored in a model file"
                ) from None
        write_file(path, out)

    @classmethod
    def load(cls, path) -> "PpmModel":
        """Read a model written by `save`; a file `train` could not write is a ValidationError."""
        with open(path, "rb") as f:
            buf = f.read()
        if buf[:4] != cls.MAGIC:
            raise ValidationError(f"{path}: not a ZPPM model file")
        try:
            off = 4
            version, max_order = struct.unpack_from("<HH", buf, off)
            off += 4
            if version != cls.VERSION:
                raise ValidationError(f"{path}: unsupported model version {version}")
            weights = struct.unpack_from("<4d", buf, off)
            off += 32
            counts: List[Dict[Context, Dict[str, int]]] = []
            for k in range(N_COMPONENTS):
                (n_triples,) = struct.unpack_from("<I", buf, off)
                off += 4
                tables: Dict[Context, Dict[str, int]] = {}
                for _ in range(n_triples):
                    (ctx_len,) = struct.unpack_from("<H", buf, off)
                    off += 2
                    toks = []
                    for _ in range(ctx_len + 1):
                        (tlen,) = struct.unpack_from("<H", buf, off)
                        (raw,) = struct.unpack_from(f"<{tlen}s", buf, off + 2)
                        toks.append(raw.decode("utf-8"))
                        off += 2 + tlen
                    (count,) = struct.unpack_from("<Q", buf, off)
                    off += 8
                    tables.setdefault(tuple(toks[:-1]), {})[toks[-1]] = count
                counts.append(tables)
        except (struct.error, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: truncated or corrupt model file ({exc})") from exc
        if off != len(buf):
            raise ValidationError(f"{path}: {len(buf) - off} trailing bytes after the model")
        try:
            return cls(max_order=max_order, weights=weights, counts=counts)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


def _chain_prob(chain: Chain, token: str) -> float:
    """PPM-D probability of `token` on an escape chain from `PpmModel._chain`."""
    links, floor = chain
    for table, t, acc in links:
        c = table.get(token, 0)
        if c > 0:
            return acc * (2 * c - 1) / (2 * t)
    return floor


class CompiledRoute:
    """The blended probabilities of one route's zones, one list per context.

    The route's distinct zones, sorted by id, become indices 0..n-1 and the
    depot sentinel ``DEPOT_ZONE`` becomes index n. ``probs(seq)`` takes a
    sequence of indices and returns a list ``p`` with
    ``p[j] == model.prob(ctx, zones[j])`` bit for bit, where ``ctx`` is the
    zone ids of the last ``max_order`` entries of ``seq``. The float
    operations are those of ``component_prob`` and ``prob``, in the same
    order.

    Each list is computed once per context. Below that, component k's list
    depends only on the longest suffix of its token context that has a
    recorded table (longer ones are skipped without an escape), so it is
    memoised on that suffix, and the blend on the four suffixes. A list
    holds one probability per distinct token, gathered to the zones that
    share it. The model memoises each token context's suffix and each
    suffix's escape chain, once for all its routes.

    Component lists are float64 arrays, and the blend starts from zeros and
    adds ``w * list`` for each weighted component in turn. Element by
    element, that is ``p + w * c`` of ``prob``: separate numpy multiplies
    and adds round like Python floats and are never fused into one
    multiply-add. (``dot``, ``einsum`` or a ``sum`` over an axis would
    reorder the additions.)
    """

    def __init__(self, model: PpmModel, zones: Sequence[str]):
        self.zones: Tuple[str, ...] = tuple(sorted(set(zones)))
        self.sentinel = len(self.zones)
        self.reads = 0  # calls of probs()
        self._model = model
        self._order = model.max_order
        tokens = [tokenize_zone(z) for z in self.zones + (DEPOT_ZONE,)]
        # (k, weight, tokens): tokens[i] is the component-k token of zone index i
        self._active = [
            (k, w, [t[k] for t in tokens]) for k, w in enumerate(model.weights) if w != 0.0
        ]
        # Per active component: the zones' distinct tokens, and each zone's among them.
        self._distinct: Dict[int, Tuple[List[str], np.ndarray]] = {}
        for k, _, toks in self._active:
            at = {}
            for tok in toks[:-1]:
                at.setdefault(tok, len(at))
            self._distinct[k] = (list(at), np.array([at[tok] for tok in toks[:-1]], dtype=np.intp))
        self._lists: Dict[Tuple[int, ...], List[float]] = {}
        self._blends: Dict[Tuple[Context, ...], List[float]] = {}
        self._component_lists: List[Dict[Context, np.ndarray]] = [{} for _ in range(N_COMPONENTS)]

    @property
    def contexts(self) -> int:
        """Number of distinct contexts whose probability list was looked up."""
        return len(self._lists)

    def probs(self, seq: Sequence[int]) -> List[float]:
        self.reads += 1
        key = tuple(seq[-self._order:])
        vec = self._lists.get(key)
        if vec is None:
            suffix = self._model._suffix
            suffixes = tuple([suffix(k, tuple([t[i] for i in key])) for k, _, t in self._active])
            vec = self._blends.get(suffixes)
            if vec is None:
                acc = np.zeros(len(self.zones))
                for (k, w, _), ctx in zip(self._active, suffixes):
                    acc = acc + w * self._component_list(k, ctx)
                vec = self._blends[suffixes] = acc.tolist()
            self._lists[key] = vec
        return vec

    def _component_list(self, k: int, ctx: Context) -> np.ndarray:
        """`component_prob(k, ctx, token)` for every zone's component-k token."""
        memo = self._component_lists[k]
        out = memo.get(ctx)
        if out is None:
            chain = self._model._chain(k, ctx)
            distinct, at = self._distinct[k]
            out = memo[ctx] = np.array([_chain_prob(chain, tok) for tok in distinct])[at]
        return out


def train(
    corpus: Sequence,
    max_order: int = DEFAULT_ORDER,
    weights: Tuple[float, float, float, float] = DEFAULT_WEIGHTS,
    sentinel: Optional[str] = DEPOT_ZONE,
) -> PpmModel:
    """Count-train the four component models over a ZSgt corpus.

    The depot sentinel is prepended to every sequence so the first-zone
    choice is conditioned on it. Deterministic: identical corpus, order and
    weights give an identical model.

    The work follows the corpus's distinct windows, not its positions. Each
    component stream is padded in front with W copies of None, where W is
    max_order capped at the longest sequence (sentinel included) less one,
    and its (W+1)-token windows are counted, one per position (the
    sentinel's own position excepted). Each distinct window then adds its
    count to every order from 0 up to the first that would reach into the
    padding. Tables are inserted in window order rather than position
    order; nothing reads that order (`save` sorts, `_chain` takes only
    `len` and `sum`, and model equality compares dicts).
    """
    if not corpus:
        raise ValidationError("cannot train on an empty corpus")
    check_order(max_order)
    head = [sentinel] if sentinel else []
    sequences = [head + list(zones) for zones in corpus]
    start = len(head)  # the sentinel is context only, never a target
    width = min(max_order, max(map(len, sequences)) - 1)
    pad = (None,) * width
    windows = [Counter() for _ in range(N_COMPONENTS)]
    for zones in sequences:
        for k, stream in enumerate(zip(*map(tokenize_zone, zones))):
            padded = pad + stream
            windows[k].update(zip(*(padded[start + j:] for j in range(width + 1))))
    counts: List[Dict[Context, Dict[str, int]]] = [{} for _ in range(N_COMPONENTS)]
    for tables, counter in zip(counts, windows):
        for window, n in counter.items():
            target = window[width]
            for order in range(width - window.count(None) + 1):
                table = tables.setdefault(window[width - order:width], {})
                table[target] = table.get(target, 0) + n
    return PpmModel(max_order=max_order, weights=tuple(weights), counts=counts)
