"""Synthetic generators for the paper's six benchmark datasets.

The paper evaluates on Fodors-Zagats, DBLP-ACM, DBLP-Scholar,
RottenTomatoes-IMDB, Abt-Buy, and Amazon-Google (Table 1). Those corpora are
not redistributable here and there is no network access, so each dataset is
replaced by a seeded generator that reproduces:

* the **scale** of Table 1 (#tuples per side, #matches, #attributes), via a
  global scale knob (``REPRO_SCALE`` ∈ tiny/small/paper);
* the **schema** (restaurant / publication / movie / product attributes);
* the **difficulty profile** that drives every experiment in the paper —
  clean restaurants (near-perfect separation), moderately noisy
  publications, a heavily imbalanced Scholar side with multiple corrupted
  copies per entity (1-to-many matches, exercising transitivity), and
  product catalogs where vendor renames and shared boilerplate defeat plain
  string similarity.

docs/architecture.md ("Implementation choices") gives the substitution
argument.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.data import vocabulary as vocab
from repro.data.corruption import (
    abbreviate_tokens,
    drop_token,
    numeric_jitter,
    ocr_noise,
    swap_tokens,
    synonym_replace,
    truncate_value,
    typo,
)
from repro.data.table import Table
from repro.utils.rng import ensure_rng

__all__ = [
    "BenchmarkSpec",
    "ERDataset",
    "BENCHMARK_NAMES",
    "SCALE_FACTORS",
    "load_benchmark",
    "dataset_statistics",
]

#: Multiplier applied to Table 1 row/match counts for each scale setting.
SCALE_FACTORS = {"tiny": 0.08, "small": 0.25, "paper": 1.0}


@dataclass(frozen=True)
class BenchmarkSpec:
    """Static description of one benchmark (Table 1 row)."""

    name: str
    domain: str
    left_rows: int
    right_rows: int
    n_matches: int
    attributes: tuple[str, ...]
    paper_name: str

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)


@dataclass
class ERDataset:
    """A generated two-table record-linkage task with gold matches."""

    name: str
    left: Table
    right: Table
    matches: frozenset
    attributes: list[str]
    spec: BenchmarkSpec
    scale: str = "small"
    seed: int = 0

    @property
    def n_matches(self) -> int:
        return len(self.matches)

    def is_match(self, left_id, right_id) -> bool:
        """Gold label for a cross-table pair."""
        return (left_id, right_id) in self.matches

    def labels_for(self, pairs) -> np.ndarray:
        """Gold 0/1 labels for an iterable of ``(left_id, right_id)`` pairs."""
        return np.array([1.0 if tuple(p) in self.matches else 0.0 for p in pairs])

    def as_dedup(self) -> tuple[Table, frozenset]:
        """Merge both sides into one table (dirty-table deduplication view).

        Left and right ids are already disjoint (``L*``/``R*`` prefixes), so
        the gold cross matches become within-table duplicate pairs.
        """
        records = list(self.left) + list(self.right)
        merged = Table(records, attributes=self.attributes, id_attr=self.left.id_attr)
        return merged, self.matches


# ---------------------------------------------------------------------------
# Table 1 specifications (paper scale)
# ---------------------------------------------------------------------------

_SPECS = {
    "rest_fz": BenchmarkSpec(
        name="rest_fz", domain="restaurants", left_rows=533, right_rows=331,
        n_matches=112,
        attributes=("name", "address", "city", "phone", "cuisine", "price_range", "rating"),
        paper_name="Fodors-Zagat (Rest-FZ)",
    ),
    "pub_da": BenchmarkSpec(
        name="pub_da", domain="publications", left_rows=2616, right_rows=2294,
        n_matches=2224,
        attributes=("title", "authors", "venue", "year"),
        paper_name="DBLP-ACM (Pub-DA)",
    ),
    "pub_ds": BenchmarkSpec(
        name="pub_ds", domain="publications", left_rows=2616, right_rows=64263,
        n_matches=5347,
        attributes=("title", "authors", "venue", "year"),
        paper_name="DBLP-Scholar (Pub-DS)",
    ),
    "mv_ri": BenchmarkSpec(
        name="mv_ri", domain="movies", left_rows=558, right_rows=556,
        n_matches=190,
        attributes=("title", "director", "year", "genre", "star", "runtime", "rating", "language"),
        paper_name="RottenTomatoes-IMDB (Mv-RI)",
    ),
    "prod_ab": BenchmarkSpec(
        name="prod_ab", domain="products", left_rows=1082, right_rows=1093,
        n_matches=1098,
        attributes=("name", "description", "price"),
        paper_name="Abt-Buy (Prod-AB)",
    ),
    "prod_ag": BenchmarkSpec(
        name="prod_ag", domain="products", left_rows=1363, right_rows=3226,
        n_matches=1300,
        attributes=("title", "manufacturer", "description", "price"),
        paper_name="Amazon-Google (Prod-AG)",
    ),
}

BENCHMARK_NAMES = tuple(_SPECS)


# ---------------------------------------------------------------------------
# Domain entity factories
# ---------------------------------------------------------------------------

def _person_name(rng: np.random.Generator) -> str:
    return f"{vocab.sample(rng, vocab.FIRST_NAMES)} {vocab.sample(rng, vocab.LAST_NAMES)}"


def _phone(rng: np.random.Generator) -> str:
    return (
        f"{rng.integers(200, 990):03d}-{rng.integers(100, 1000):03d}-{rng.integers(0, 10000):04d}"
    )


def _model_number(rng: np.random.Generator) -> str:
    letters = "".join(
        vocab.sample(rng, tuple("abcdefghjkmnprstuvwx")) for _ in range(int(rng.integers(2, 4)))
    )
    return f"{letters}-{rng.integers(10, 9900)}"


class _RestaurantFactory:
    """Clean restaurant entities (Fodors side)."""

    def entity(self, rng: np.random.Generator) -> dict:
        words = vocab.sample_words(rng, vocab.RESTAURANT_WORDS, 2)
        cuisine = vocab.sample(rng, vocab.CUISINES)
        name = " ".join(words)
        if rng.random() < 0.5:
            name = f"{name} {vocab.sample(rng, ('grill', 'cafe', 'bistro', 'kitchen', 'house'))}"
        return {
            "name": name,
            "address": (
                f"{rng.integers(1, 9900)} {vocab.sample(rng, vocab.STREET_NAMES)} "
                f"{vocab.sample(rng, vocab.STREET_TYPES)}"
            ),
            "city": vocab.sample(rng, vocab.CITIES),
            "phone": _phone(rng),
            "cuisine": cuisine,
            "price_range": "$" * int(rng.integers(1, 5)),
            "rating": round(float(rng.uniform(2.0, 5.0)), 1),
        }

    def key(self, rec: dict) -> tuple:
        return (rec["name"], rec["address"])


class _PublicationFactory:
    """Clean publication entities (DBLP side)."""

    def entity(self, rng: np.random.Generator) -> dict:
        topic = vocab.sample(rng, vocab.PAPER_TOPIC_WORDS)
        method = vocab.sample(rng, vocab.PAPER_METHOD_WORDS)
        obj = vocab.sample(rng, vocab.PAPER_OBJECT_WORDS)
        connector = vocab.sample(rng, ("for", "of", "over", "in"))
        title = f"{topic} {method} {connector} {obj}"
        if rng.random() < 0.5:
            title = f"{title} {vocab.sample(rng, ('at scale', 'revisited', 'in the cloud', 'made practical'))}"
        n_authors = int(rng.integers(2, 5))
        authors = ", ".join(_person_name(rng) for _ in range(n_authors))
        venue_idx = int(rng.integers(len(vocab.VENUES)))
        return {
            "title": title,
            "authors": authors,
            "venue": vocab.VENUES[venue_idx],
            "_venue_idx": venue_idx,  # private helper for abbreviation corruption
            "year": int(rng.integers(1995, 2016)),
        }

    def key(self, rec: dict) -> tuple:
        return (rec["title"], rec["authors"])


class _MovieFactory:
    """Clean movie entities (RottenTomatoes side)."""

    def entity(self, rng: np.random.Generator) -> dict:
        n_words = int(rng.integers(2, 4))
        title = " ".join(vocab.sample_words(rng, vocab.MOVIE_TITLE_WORDS, n_words))
        if rng.random() < 0.3:
            title = f"the {title}"
        return {
            "title": title,
            "director": _person_name(rng),
            "year": int(rng.integers(1960, 2016)),
            "genre": vocab.sample(rng, vocab.GENRES),
            "star": _person_name(rng),
            "runtime": int(rng.integers(80, 190)),
            "rating": round(float(rng.uniform(3.0, 9.5)), 1),
            "language": vocab.sample(rng, ("english", "french", "spanish", "japanese", "german")),
        }

    def sibling(self, rng: np.random.Generator, rec: dict) -> dict:
        """A remake: same title, different crew, year, and numbers — a true
        unmatch that is nearly indistinguishable on the title attribute."""
        out = self.entity(rng)
        out["title"] = rec["title"]
        if rng.random() < 0.6:
            out["genre"] = rec["genre"]
        return out

    def key(self, rec: dict) -> tuple:
        return (rec["title"], rec["director"])


_CATEGORY_BASE_PRICE = {cat: 30.0 * (1.6 ** (i % 8)) for i, cat in enumerate(vocab.PRODUCT_CATEGORIES)}


class _ProductFactory:
    """Clean product entities (Abt / Amazon side)."""

    def __init__(self, with_manufacturer: bool):
        self.with_manufacturer = with_manufacturer

    def _describe(self, rng: np.random.Generator, brand: str, category: str, model: str) -> str:
        adjectives = vocab.sample_words(rng, vocab.PRODUCT_ADJECTIVES, int(rng.integers(2, 4)))
        fillers = vocab.sample_words(rng, vocab.PRODUCT_FILLER_PHRASES, int(rng.integers(4, 8)))
        spec_bits = (
            f"{rng.integers(2, 64)}gb" if rng.random() < 0.4 else f"{rng.integers(7, 60)} inch"
        )
        return " ".join([brand, category, model, *adjectives, spec_bits, *fillers])

    def _assemble(self, rng, brand, category, model, adjective, price) -> dict:
        name = f"{brand} {adjective} {category} {model}"
        rec = {
            "_brand": brand,
            "_category": category,
            "_model": model,
            "_adjective": adjective,
            "name": name,
            "title": name,
            "description": self._describe(rng, brand, category, model),
            "price": round(price, 2),
        }
        if self.with_manufacturer:
            rec["manufacturer"] = brand
        return rec

    def entity(self, rng: np.random.Generator) -> dict:
        brand = vocab.sample(rng, vocab.BRANDS)
        category = vocab.sample(rng, vocab.PRODUCT_CATEGORIES)
        model = _model_number(rng)
        adjective = vocab.sample(rng, vocab.PRODUCT_ADJECTIVES)
        price = _CATEGORY_BASE_PRICE[category] * float(rng.lognormal(0.0, 0.35))
        return self._assemble(rng, brand, category, model, adjective, price)

    @staticmethod
    def _model_variant(rng: np.random.Generator, model: str) -> str:
        """Perturb the last digit of a model number (``dsc-w55`` → ``dsc-w57``).

        Changing only the final digit keeps the q-gram overlap with the
        source SKU as high as possible — the same ballpark as a *reformatted*
        SKU of a true match, which is what makes siblings confusable.
        """
        chars = list(model)
        digit_positions = [i for i, c in enumerate(chars) if c.isdigit()]
        if not digit_positions:
            return _model_number(rng)
        pos = digit_positions[-1]
        current = int(chars[pos])
        chars[pos] = str((current + int(rng.integers(1, 4))) % 10)
        return "".join(chars)

    def sibling(self, rng: np.random.Generator, rec: dict) -> dict:
        """A *different* product from the same brand, category, and — most of
        the time — the same model family (one digit apart).

        Siblings share nearly all name/description tokens with their source
        entity while being true unmatches; together with vendor renames on
        the matched side, this is what makes the product datasets hard for
        similarity-based matching (paper §7.2).
        """
        brand, category = rec["_brand"], rec["_category"]
        if rng.random() < 0.7:
            model = self._model_variant(rng, rec["_model"])
        else:
            model = _model_number(rng)
        if rng.random() < 0.5:
            adjective = rec["_adjective"]
        else:
            adjective = vocab.sample(rng, vocab.PRODUCT_ADJECTIVES)
        # siblings sit at the same price point with the *same* spread a true
        # match's cross-vendor price jitter has, so price cannot separate them
        price = rec["price"] * float(rng.lognormal(0.0, 0.18))
        return self._assemble(rng, brand, category, model, adjective, price)

    def key(self, rec: dict) -> tuple:
        return (rec["name"],)


# ---------------------------------------------------------------------------
# Per-dataset corruption profiles
# ---------------------------------------------------------------------------

class _DatasetGenerator:
    """Base class: an entity factory plus left/right corruption channels."""

    factory = None  # set by subclasses
    #: Fraction of right-side distractors generated as near-duplicates of a
    #: left entity (0 outside the product domain).
    sibling_fraction = 0.0

    def corrupt_left(self, rng: np.random.Generator, rec: dict) -> dict:
        """The left source is the cleaner one; default is a verbatim copy."""
        return dict(rec)

    def corrupt_right(self, rng: np.random.Generator, rec: dict) -> dict:
        raise NotImplementedError

    def vary_copy(self, rng: np.random.Generator, entity: dict, previous: dict) -> dict:
        """Additional right-side copy of an already-copied entity.

        The default draws an independent corruption of the clean entity.
        Datasets whose duplicates are *variants of each other* (DBLP-Scholar:
        multiple crawls of the same listing) override this to derive the new
        copy from the previous one, so duplicates resemble one another more
        than they resemble the clean source.
        """
        return self.corrupt_right(rng, entity)

    def distractor(self, rng: np.random.Generator, left_entities: list[dict]) -> dict:
        """A right-side record that matches nothing on the left."""
        factory = self.factory
        if self.sibling_fraction > 0.0 and rng.random() < self.sibling_fraction:
            source = left_entities[int(rng.integers(len(left_entities)))]
            return factory.sibling(rng, source)
        return factory.entity(rng)


class _RestFZ(_DatasetGenerator):
    """Fodors-Zagats: clean data, light formatting noise — the easy dataset."""

    factory = _RestaurantFactory()

    def corrupt_right(self, rng, rec):
        out = dict(rec)
        if rng.random() < 0.15:
            out["name"] = typo(rng, out["name"], 1)
        if rng.random() < 0.3:
            out["address"] = out["address"].replace("st.", "street").replace("ave.", "avenue")
        if rng.random() < 0.2:
            out["phone"] = out["phone"].replace("-", "/")
        if rng.random() < 0.2:
            out["rating"] = round(out["rating"] + float(rng.uniform(-0.3, 0.3)), 1)
        return out


class _PubDA(_DatasetGenerator):
    """DBLP-ACM: moderate noise on titles/authors/venues."""

    factory = _PublicationFactory()
    title_typo = 0.3
    author_abbrev = 0.3
    venue_abbrev = 0.5
    year_jitter = 0.05
    title_truncate = 0.0
    title_drop = 0.1
    missing_venue = 0.05
    missing_year = 0.05

    def corrupt_right(self, rng, rec):
        out = dict(rec)
        if rng.random() < self.title_typo:
            out["title"] = typo(rng, out["title"], int(rng.integers(1, 3)))
        if self.title_truncate and rng.random() < self.title_truncate:
            out["title"] = truncate_value(rng, out["title"], min_keep=12)
        if rng.random() < self.title_drop:
            out["title"] = drop_token(rng, out["title"])
        if rng.random() < 0.4:
            out["authors"] = swap_tokens(rng, out["authors"])
        if rng.random() < self.author_abbrev:
            out["authors"] = abbreviate_tokens(rng, out["authors"], keep_first=False)
        if rng.random() < self.venue_abbrev:
            out["venue"] = vocab.VENUE_ABBREVIATIONS[rec["_venue_idx"]]
        if rng.random() < self.missing_venue:
            out["venue"] = None
        if rng.random() < self.year_jitter:
            out["year"] = rec["year"] + int(rng.choice((-1, 1)))
        if rng.random() < self.missing_year:
            out["year"] = None
        return out


class _PubDS(_PubDA):
    """DBLP-Scholar: heavier noise, many distractors, 1-to-many matches."""

    title_typo = 0.35
    author_abbrev = 0.5
    venue_abbrev = 0.8
    year_jitter = 0.1
    title_truncate = 0.08
    title_drop = 0.15
    missing_venue = 0.15
    missing_year = 0.2

    def corrupt_right(self, rng, rec):
        out = super().corrupt_right(rng, rec)
        if rng.random() < 0.1:
            out["title"] = ocr_noise(rng, out["title"], rate=0.06)
        if rng.random() < 0.25:
            out["authors"] = drop_token(rng, out["authors"])
        return out

    def vary_copy(self, rng, entity, previous):
        # Scholar-style duplicates: re-crawls of the same listing, so the new
        # copy is a light variation of the previous one, not an independent
        # corruption of the clean DBLP record.
        out = dict(previous)
        if rng.random() < 0.4:
            out["title"] = typo(rng, out["title"], 1)
        if rng.random() < 0.2 and out["authors"] is not None:
            out["authors"] = drop_token(rng, out["authors"])
        if rng.random() < 0.15:
            out["venue"] = None
        return out


class _MvRI(_DatasetGenerator):
    """RottenTomatoes-IMDB: moderate noise plus remakes among distractors."""

    factory = _MovieFactory()
    sibling_fraction = 0.25

    def corrupt_right(self, rng, rec):
        out = dict(rec)
        hard = rng.random() < 0.15  # a slice of matches is badly mangled
        if rng.random() < (0.95 if hard else 0.3):
            out["title"] = typo(rng, out["title"], int(rng.integers(2, 5) if hard else rng.integers(1, 3)))
        if out["title"].startswith("the ") and rng.random() < 0.3:
            out["title"] = out["title"][4:]
        if rng.random() < (0.7 if hard else 0.35):
            out["director"] = abbreviate_tokens(rng, out["director"], keep_first=False)
        if rng.random() < (0.3 if hard else 0.05):
            out["director"] = None
        if rng.random() < 0.22:
            out["year"] = rec["year"] + int(rng.choice((-1, 1)))
        if rng.random() < 0.1:
            out["genre"] = vocab.sample(rng, vocab.GENRES)
        if rng.random() < 0.45:
            out["runtime"] = rec["runtime"] + int(rng.integers(-10, 11))
        if rng.random() < 0.55:
            out["rating"] = round(rec["rating"] + float(rng.uniform(-0.6, 0.6)), 1)
        if rng.random() < (0.5 if hard else 0.15):
            out["star"] = None
        return out


class _ProdAB(_DatasetGenerator):
    """Abt-Buy: vendor renames + independently written descriptions — hard."""

    factory = _ProductFactory(with_manufacturer=False)
    sibling_fraction = 0.55
    rename_prob = 0.75
    drop_brand_prob = 0.4
    model_reformat_prob = 0.5
    model_strip_prob = 0.25

    def corrupt_right(self, rng, rec):
        out = dict(rec)
        name = rec["name"]
        if rng.random() < self.rename_prob:
            name = synonym_replace(rng, name, vocab.PRODUCT_SYNONYMS)
        if rng.random() < 0.25:
            # the right vendor sometimes uses its own marketing adjective, so
            # even un-renamed matches are not always verbatim copies
            new_adjective = vocab.sample(rng, vocab.PRODUCT_ADJECTIVES)
            name = name.replace(rec["_adjective"], new_adjective, 1)
        if rng.random() < self.model_strip_prob:
            # the vendor lists the product without its SKU at all
            name = name.replace(rec["_model"], "").strip()
        elif rng.random() < self.model_reformat_prob:
            name = name.replace(rec["_model"], rec["_model"].replace("-", ""))
        if rng.random() < self.drop_brand_prob:
            name = name.replace(rec["_brand"], "").strip()
        name = " ".join(name.split())
        # products carry the same string under both schema spellings
        out["name"] = name
        out["title"] = name
        # The right vendor writes its own copy: regenerate the description
        # from scratch so matches share little description text beyond the
        # boilerplate all products share.
        category = rec["_category"]
        if rng.random() < self.rename_prob:
            category = vocab.PRODUCT_SYNONYMS.get(category, category)
        out["description"] = self.factory._describe(rng, rec["_brand"], category, rec["_model"])
        out["price"] = round(max(1.0, numeric_jitter(rng, rec["price"], 0.18)), 2)
        if "manufacturer" in out and rng.random() < 0.35:
            out["manufacturer"] = None
        return out


class _ProdAG(_ProdAB):
    """Amazon-Google: same hard channel, larger right side with more siblings."""

    factory = _ProductFactory(with_manufacturer=True)
    sibling_fraction = 0.6
    rename_prob = 0.75
    drop_brand_prob = 0.4
    model_reformat_prob = 0.5
    model_strip_prob = 0.25


_GENERATORS = {
    "rest_fz": _RestFZ,
    "pub_da": _PubDA,
    "pub_ds": _PubDS,
    "mv_ri": _MvRI,
    "prod_ab": _ProdAB,
    "prod_ag": _ProdAG,
}

_SEED_OFFSETS = {name: i * 1009 for i, name in enumerate(_SPECS)}


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _strip_private(rec: dict) -> dict:
    return {k: v for k, v in rec.items() if not k.startswith("_")}


def _unique_entities(generator, rng, count: int) -> list[dict]:
    """Draw ``count`` entities with distinct natural keys."""
    factory = generator.factory
    out: list[dict] = []
    seen: set = set()
    attempts = 0
    while len(out) < count:
        rec = factory.entity(rng)
        key = factory.key(rec)
        attempts += 1
        if key in seen:
            if attempts > 50 * count:
                raise RuntimeError(
                    f"could not generate {count} unique entities; vocabulary too small"
                )
            continue
        seen.add(key)
        out.append(rec)
    return out


def _scaled_counts(spec: BenchmarkSpec, factor: float) -> tuple[int, int, int]:
    left = max(30, int(round(spec.left_rows * factor)))
    right = max(30, int(round(spec.right_rows * factor)))
    matches = max(12, int(round(spec.n_matches * factor)))
    # A right row holds at most one entity copy here, so it can participate
    # in at most one gold match: Abt-Buy's handful of many-to-many pairs are
    # dropped, since a generated row is the copy of exactly one entity.
    matches = min(matches, right)
    return left, right, matches


def load_benchmark(name: str, scale: str | None = None, seed: int = 0) -> ERDataset:
    """Generate one benchmark dataset.

    Parameters
    ----------
    name:
        One of :data:`BENCHMARK_NAMES` (``rest_fz``, ``pub_da``, ``pub_ds``,
        ``mv_ri``, ``prod_ab``, ``prod_ag``).
    scale:
        ``"tiny"`` / ``"small"`` / ``"paper"``. Defaults to the
        ``REPRO_SCALE`` environment variable, then ``"small"``.
    seed:
        Base seed; the same ``(name, scale, seed)`` always yields the same
        dataset.
    """
    if name not in _SPECS:
        raise KeyError(f"unknown benchmark {name!r}; available: {sorted(_SPECS)}")
    if scale is None:
        scale = os.environ.get("REPRO_SCALE", "small")
    if scale not in SCALE_FACTORS:
        raise ValueError(f"unknown scale {scale!r}; available: {sorted(SCALE_FACTORS)}")
    spec = _SPECS[name]
    generator = _GENERATORS[name]()
    rng = ensure_rng(seed * 7919 + _SEED_OFFSETS[name] + 13)
    left_n, right_n, n_matches = _scaled_counts(spec, SCALE_FACTORS[scale])

    entities = _unique_entities(generator, rng, left_n)
    left_records = [
        {"id": f"L{i}", **_strip_private(generator.corrupt_left(rng, rec))}
        for i, rec in enumerate(entities)
    ]

    # Assign copy counts so the total number of right-side copies equals
    # n_matches. Pub-DS style datasets get multi-copy entities (1-to-many).
    n_matched = min(left_n, n_matches)
    matched_idx = rng.choice(left_n, size=n_matched, replace=False)
    copies = np.ones(n_matched, dtype=int)
    for _ in range(n_matches - n_matched):
        copies[int(rng.integers(n_matched))] += 1

    right_records: list[dict] = []
    matches: set[tuple[str, str]] = set()
    rid = 0
    for idx, n_copies in zip(matched_idx, copies):
        entity = entities[int(idx)]
        previous: dict | None = None
        for copy_number in range(int(n_copies)):
            if copy_number == 0:
                corrupted = generator.corrupt_right(rng, entity)
            else:
                corrupted = generator.vary_copy(rng, entity, previous)
            previous = corrupted
            right_records.append({"id": f"R{rid}", **_strip_private(corrupted)})
            matches.add((f"L{int(idx)}", f"R{rid}"))
            rid += 1
    n_distractors = right_n - rid
    if n_distractors > 0:
        seen_keys = {generator.factory.key(rec) for rec in entities}
        made = 0
        attempts = 0
        while made < n_distractors:
            rec = generator.distractor(rng, entities)
            attempts += 1
            key = generator.factory.key(rec)
            if key in seen_keys and attempts < 50 * n_distractors:
                continue
            seen_keys.add(key)
            right_records.append({"id": f"R{rid}", **_strip_private(rec)})
            rid += 1
            made += 1
    order = rng.permutation(len(right_records))
    right_records = [right_records[int(i)] for i in order]

    attributes = list(spec.attributes)
    return ERDataset(
        name=name,
        left=Table(left_records, attributes=attributes),
        right=Table(right_records, attributes=attributes),
        matches=frozenset(matches),
        attributes=attributes,
        spec=spec,
        scale=scale,
        seed=seed,
    )


def dataset_statistics(dataset: ERDataset) -> dict:
    """Table 1-style statistics for a generated dataset."""
    return {
        "dataset": dataset.spec.paper_name,
        "notation": dataset.name,
        "tuples": f"{len(dataset.left)} - {len(dataset.right)}",
        "n_left": len(dataset.left),
        "n_right": len(dataset.right),
        "n_matches": dataset.n_matches,
        "n_attributes": dataset.spec.n_attributes,
        "scale": dataset.scale,
    }
