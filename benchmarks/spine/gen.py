"""Seeded, stdlib-only input generator for the spine workloads.

Everything a workload feeds the program comes from here and from one
integer seed.  ``repro.datasets`` is deliberately not used: its
40-name vocabularies collapse at scale (every row shares tokens with
every other), which is exactly the regime split the spine exists to
measure.  Two vocabulary regimes instead:

* **sparse** - open vocabulary proportional to the row count, Zipf
  s~1, 3-8 tokens per record: names, titles, addresses.  Posting lists
  are short and the token universe is far above ``MASK_UNIVERSE_MAX``.
* **dense** - closed vocabulary of a few hundred tokens, Zipf s~0.3:
  category-like columns with long posting lists.

The generated inputs are plain dicts of lists (JSON-shaped), so
:func:`digest` can hash them canonically and two runs on one seed are
provably the same workload.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import accumulate

SPARSE = {"s": 1.0, "min_tokens": 3, "max_tokens": 8}
DENSE = {"vocab": 400, "s": 0.3, "min_tokens": 4, "max_tokens": 7}
TENANTS = ("t0", "t1", "t2", "t3")


class TokenSource:
    """Zipf-distributed draws from a vocabulary of ``prefix<rank>`` words."""

    def __init__(self, rng: random.Random, prefix: str, vocab: int, s: float):
        self.rng = rng
        self.words = [f"{prefix}{rank}" for rank in range(vocab)]
        self.cum = list(accumulate(1.0 / (rank + 1) ** s for rank in range(vocab)))

    def draw(self, k: int) -> list[str]:
        """``k`` distinct tokens, in draw order."""
        k = min(k, len(self.words))
        seen: dict[str, None] = {}
        while len(seen) < k:
            for word in self.rng.choices(self.words, cum_weights=self.cum, k=k):
                if len(seen) < k:
                    seen.setdefault(word)
        return list(seen)

    def record(self, min_tokens: int, max_tokens: int) -> list[str]:
        return self.draw(self.rng.randint(min_tokens, max_tokens))


def corrupt(rng: random.Random, tokens: list[str], source: TokenSource) -> list[str]:
    """A near-copy: unchanged, one token replaced, dropped, or added."""
    tokens = list(tokens)
    roll = rng.random()
    if roll < 0.4:
        pass
    elif roll < 0.7:
        tokens[rng.randrange(len(tokens))] = source.draw(1)[0]
    elif roll < 0.85 and len(tokens) > 1:
        del tokens[rng.randrange(len(tokens))]
    else:
        tokens.append(source.draw(1)[0])
    rng.shuffle(tokens)
    return list(dict.fromkeys(tokens))


def _source(rng: random.Random, regime: str, rows: int, prefix: str) -> tuple[TokenSource, dict]:
    spec = SPARSE if regime == "sparse" else DENSE
    vocab = spec.get("vocab", max(50, rows))
    return TokenSource(rng, prefix, vocab, spec["s"]), spec


def token_table_pair(
    seed: int, regime: str, rows: int, match_share: float = 0.3
) -> dict:
    """Two single-column token tables; ``match_share`` of the right rows
    are near-copies of left rows, the rest are fresh draws."""
    rng = random.Random(f"{seed}:pair:{regime}")
    source, spec = _source(rng, regime, rows, "w" if regime == "sparse" else "c")
    left = [source.record(spec["min_tokens"], spec["max_tokens"]) for _ in range(rows)]
    right = []
    for _ in range(rows):
        if rng.random() < match_share:
            right.append(corrupt(rng, left[rng.randrange(rows)], source))
        else:
            right.append(source.record(spec["min_tokens"], spec["max_tokens"]))
    return {
        "regime": regime,
        "l_id": [f"l{i}" for i in range(rows)],
        "l_value": [" ".join(tokens) for tokens in left],
        "r_id": [f"r{i}" for i in range(rows)],
        "r_value": [" ".join(tokens) for tokens in right],
    }


def join_inputs(seed: int, sparse_rows: int, dense_rows: int) -> dict:
    return {
        "sparse": token_table_pair(seed, "sparse", sparse_rows),
        "dense": token_table_pair(seed, "dense", dense_rows),
    }


_CATEGORIES = [f"cat{i:02d}" for i in range(24)]


def _code(rng: random.Random) -> str:
    letters = "".join(rng.choices("ABCDEFGHJKLMNPQRSTUVWXYZ", k=2))
    return f"{letters}-{rng.randrange(100000):05d}"


def guide_job(rng: random.Random, rows: int, match_share: float = 0.5) -> dict:
    """Two 4-attribute tables (token title, categorical, code, numeric)
    plus the gold matching pairs.

    A title is ``brand type descriptor...``.  Every (brand, type)
    combination labels the same number of A rows (10), so the overlap
    blocker keeps about ten candidates per B row whatever the seed: the
    seed picks *which* rows collide, not how much work the run does.
    ``match_share`` of B's rows describe an A entity with per-attribute
    noise; a third of the rest are hard negatives - a sibling product
    with an A row's title and category but its own code and price, so
    the matcher cannot lean on the title alone.  (Siblings that also
    share a code stem make f1 swing by 0.07 between seeds and push
    single jobs under the floor; the workload has to be one on which
    no operation fails.)
    """
    combos = max(1, rows // 10)
    descriptors = TokenSource(rng, "d", max(50, 4 * rows), 0.6)
    order = list(range(rows))
    rng.shuffle(order)

    def fresh(row_id: str, combo: int) -> dict:
        return {
            "id": row_id,
            "title": [f"brand{combo // 10}", f"type{combo % 10}"] + descriptors.record(2, 4),
            "category": rng.choice(_CATEGORIES),
            "code": _code(rng),
            "price": round(rng.uniform(5.0, 500.0), 2),
        }

    a_rows = [fresh(f"a{i}", order[i] % combos) for i in range(rows)]
    b_rows, gold = [], []
    for i in range(rows):
        b_id = f"b{i}"
        roll = rng.random()
        if roll < match_share:
            src = a_rows[rng.randrange(rows)]
            gold.append([src["id"], b_id])
            code = src["code"]
            if rng.random() < 0.3:
                code = code[:-1] + str(rng.randrange(10))
            b_rows.append(
                {
                    "id": b_id,
                    "title": corrupt(rng, src["title"], descriptors),
                    "category": src["category"] if rng.random() < 0.9 else rng.choice(_CATEGORIES),
                    "code": code,
                    "price": round(src["price"] * rng.uniform(0.95, 1.05), 2),
                }
            )
        elif roll < match_share + (1 - match_share) / 3:
            sibling = a_rows[rng.randrange(rows)]
            row = fresh(b_id, 0)
            row["title"] = corrupt(rng, sibling["title"], descriptors)
            row["category"] = sibling["category"]
            b_rows.append(row)
        else:
            b_rows.append(fresh(b_id, rng.randrange(combos)))

    def columns(table_rows: list[dict]) -> dict:
        return {
            "id": [row["id"] for row in table_rows],
            "title": [" ".join(row["title"]) for row in table_rows],
            "category": [row["category"] for row in table_rows],
            "code": [row["code"] for row in table_rows],
            "price": [row["price"] for row in table_rows],
        }

    return {"A": columns(a_rows), "B": columns(b_rows), "gold": sorted(gold)}


def guide_inputs(seed: int, rows: int, jobs: int) -> list[dict]:
    """``jobs`` independent table pairs: the workload reports medians
    over them, so one noisy job does not move a metric."""
    return [guide_job(random.Random(f"{seed}:guide:{job}"), rows) for job in range(jobs)]


def _corpus(rng: random.Random, rows: int) -> tuple[TokenSource, dict, list[list[str]]]:
    source, spec = _source(rng, "sparse", rows, "w")
    return source, spec, [
        source.record(spec["min_tokens"], spec["max_tokens"]) for _ in range(rows)
    ]


def _queries(
    rng: random.Random, corpus: list[list[str]], source: TokenSource, spec: dict, n: int
) -> list[str]:
    """Corrupted copies of corpus rows (70 %) mixed with unseen rows."""
    queries = []
    for _ in range(n):
        if rng.random() < 0.7:
            tokens = corrupt(rng, corpus[rng.randrange(len(corpus))], source)
        else:
            tokens = source.record(spec["min_tokens"], spec["max_tokens"])
        queries.append(" ".join(tokens))
    return queries


def serve_read_inputs(seed: int, rows: int, n_queries: int) -> dict:
    """A sparse corpus and a pool of distinct-ish queries; phases cycle
    through the pool, tenants assigned round-robin."""
    rng = random.Random(f"{seed}:serve_read")
    source, spec, corpus = _corpus(rng, rows)
    return {
        "id": [f"k{i}" for i in range(rows)],
        "value": [" ".join(tokens) for tokens in corpus],
        "queries": _queries(rng, corpus, source, spec, n_queries),
    }


def serve_churn_inputs(seed: int, rows: int, n_ops: int, n_probes: int, n_bulk: int) -> dict:
    """A sparse corpus plus an op stream: 80 % match / 15 % upsert (half
    new keys, half replacements) / 5 % delete; the probe queries the
    post-run check replays; and a batch of new rows for the bulk path."""
    rng = random.Random(f"{seed}:serve_churn")
    source, spec, corpus = _corpus(rng, rows)
    live_keys = [f"k{i}" for i in range(rows)]
    next_key = rows
    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.80:
            ops.append(["match", _queries(rng, corpus, source, spec, 1)[0]])
        elif roll < 0.95:
            value = " ".join(source.record(spec["min_tokens"], spec["max_tokens"]))
            if rng.random() < 0.5:
                key = f"k{next_key}"
                next_key += 1
                live_keys.append(key)
            else:
                key = live_keys[rng.randrange(len(live_keys))]
            ops.append(["upsert", key, value])
        else:
            # May name an already-deleted key: the server reports absent.
            ops.append(["delete", live_keys[rng.randrange(len(live_keys))]])
    bulk = [
        [f"bulk{i}", " ".join(source.record(spec["min_tokens"], spec["max_tokens"]))]
        for i in range(n_bulk)
    ]
    return {
        "id": [f"k{i}" for i in range(rows)],
        "value": [" ".join(tokens) for tokens in corpus],
        "ops": ops,
        "bulk": bulk,
        "probes": _queries(rng, corpus, source, spec, n_probes),
    }


def digest(inputs) -> str:
    """sha256 of the canonical JSON form of generated inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
