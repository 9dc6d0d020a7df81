"""Category bookkeeping for the 13 clothing classes.

Each category owns a contiguous slice of a global 294-entry keypoint index
space. All landmark tensors are laid out in this global order, so the table
built here is the single source of truth for channel arithmetic everywhere
else in the package.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

NUM_CATEGORIES = 13
TOTAL_KEYPOINTS = 294
DEFAULT_SIGMA = 0.05

_DEFAULT_CONFIG_RESOURCE = "data/default_categories.json"


class CategoryConfigError(ValueError):
    """Raised when a category config document violates the schema."""


@dataclass(frozen=True)
class CategorySpec:
    """One clothing category and its slice of the global keypoint space."""

    id: int
    name: str
    keypoint_count: int
    global_offset: int


@dataclass(frozen=True)
class CategoryTable:
    """All 13 categories plus flip-symmetry pairs and per-keypoint OKS sigmas.

    Immutable after construction; safe to share across workers.
    """

    specs: tuple[CategorySpec, ...]
    flip_pairs: tuple[tuple[int, int], ...]
    sigmas: np.ndarray

    @cached_property
    def flip_perm(self) -> np.ndarray:
        """Read-only (294,) map of each global keypoint index to its flip partner.

        An unpaired index maps to itself. Pairs are disjoint and lie inside
        one category slice (load_category_table checks both), so the map is
        an involution that keeps every slice in place. Built once per table.
        """
        perm = np.arange(TOTAL_KEYPOINTS)
        if self.flip_pairs:
            a, b = np.array(self.flip_pairs).T
            perm[a] = b
            perm[b] = a
        perm.setflags(write=False)
        return perm

    def spec(self, category_id: int) -> CategorySpec:
        if not 1 <= category_id <= len(self.specs):
            raise CategoryConfigError(f"unknown category id {category_id}")
        return self.specs[category_id - 1]

    def keypoint_count(self, category_id: int) -> int:
        return self.spec(category_id).keypoint_count

    def global_slice(self, category_id: int) -> slice:
        """Global keypoint index range [offset, offset + count) for a category."""
        spec = self.spec(category_id)
        return slice(spec.global_offset, spec.global_offset + spec.keypoint_count)


def _category_of_global(specs: tuple[CategorySpec, ...], global_idx: int) -> CategorySpec:
    for spec in specs:
        if spec.global_offset <= global_idx < spec.global_offset + spec.keypoint_count:
            return spec
    raise CategoryConfigError(f"global keypoint index {global_idx} out of range")


def load_category_table(config_text: str) -> CategoryTable:
    """Parse a JSON category config document into a CategoryTable.

    Schema: {"categories": [{"id", "name", "keypoints"}, ...],
             "flip_pairs": [[a, b], ...], "sigmas": [294 numbers]}
    with flip_pairs and sigmas optional (sigmas default to uniform 0.05).

    Raises:
        CategoryConfigError: on any schema or invariant violation, naming the
            offending field.
    """
    try:
        doc = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise CategoryConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "categories" not in doc:
        raise CategoryConfigError("config must be an object with a 'categories' list")

    raw = doc["categories"]
    if not isinstance(raw, list) or len(raw) != NUM_CATEGORIES:
        raise CategoryConfigError(
            f"expected {NUM_CATEGORIES} categories, got {len(raw) if isinstance(raw, list) else type(raw).__name__}"
        )

    seen_ids: set[int] = set()
    entries = []
    for pos, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise CategoryConfigError(f"categories[{pos}] is not an object")
        try:
            cid = entry["id"]
            name = entry["name"]
            count = entry["keypoints"]
        except KeyError as exc:
            raise CategoryConfigError(f"categories[{pos}] missing field {exc}") from exc
        # type(), not isinstance: JSON true and false are ints to isinstance.
        if type(cid) is not int or not 1 <= cid <= NUM_CATEGORIES:
            raise CategoryConfigError(f"categories[{pos}].id must be an integer 1..{NUM_CATEGORIES}, got {cid!r}")
        if cid in seen_ids:
            raise CategoryConfigError(f"duplicate category id {cid}")
        seen_ids.add(cid)
        if not isinstance(name, str):
            raise CategoryConfigError(f"categories[{pos}].name must be a string, got {name!r}")
        if type(count) is not int or count <= 0:
            raise CategoryConfigError(f"categories[{pos}].keypoints must be a positive integer, got {count!r}")
        entries.append((cid, name, count))

    entries.sort(key=lambda e: e[0])
    total = sum(count for _, _, count in entries)
    if total != TOTAL_KEYPOINTS:
        raise CategoryConfigError(f"keypoint total {total} != {TOTAL_KEYPOINTS}")

    specs = []
    offset = 0
    for cid, name, count in entries:
        specs.append(CategorySpec(id=cid, name=name, keypoint_count=count, global_offset=offset))
        offset += count
    specs = tuple(specs)

    pairs = []
    used: set[int] = set()
    for pos, pair in enumerate(doc.get("flip_pairs", [])):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise CategoryConfigError(f"flip_pairs[{pos}] must be a two-element pair, got {pair!r}")
        a, b = pair
        if not all(type(v) is int and 0 <= v < TOTAL_KEYPOINTS for v in (a, b)) or a == b:
            raise CategoryConfigError(f"flip_pairs[{pos}] = {pair!r} is not a pair of distinct indices in [0, {TOTAL_KEYPOINTS})")
        if _category_of_global(specs, a) is not _category_of_global(specs, b):
            raise CategoryConfigError(f"flip_pairs[{pos}] = {pair!r} crosses category slices")
        if a in used or b in used:
            raise CategoryConfigError(f"flip_pairs[{pos}] reuses an index already paired")
        used.update((a, b))
        pairs.append((min(a, b), max(a, b)))

    raw_sigmas = doc.get("sigmas")
    if raw_sigmas is None:
        sigmas = np.full(TOTAL_KEYPOINTS, DEFAULT_SIGMA, dtype=np.float64)
    else:
        if not isinstance(raw_sigmas, list) or len(raw_sigmas) != TOTAL_KEYPOINTS:
            raise CategoryConfigError(f"sigmas must hold {TOTAL_KEYPOINTS} numbers")
        for i, sigma in enumerate(raw_sigmas):
            # NaN fails the comparison, and an integer beyond float range the upper bound.
            if type(sigma) not in (int, float) or not 0 < sigma <= sys.float_info.max:
                raise CategoryConfigError(f"sigmas[{i}] = {sigma!r} is not a positive finite number")
        sigmas = np.array(raw_sigmas, dtype=np.float64)
    sigmas.setflags(write=False)

    return CategoryTable(specs=specs, flip_pairs=tuple(pairs), sigmas=sigmas)


def dump_category_table(table: CategoryTable) -> str:
    """Serialize a table back to config JSON (inverse of load_category_table)."""
    doc = {
        "categories": [
            {"id": s.id, "name": s.name, "keypoints": s.keypoint_count} for s in table.specs
        ],
        "flip_pairs": [list(p) for p in table.flip_pairs],
        "sigmas": [float(s) for s in table.sigmas],
    }
    return json.dumps(doc, indent=2)


def default_table() -> CategoryTable:
    """Load the packaged default 13-category clothing config."""
    text = resources.files(__package__).joinpath(_DEFAULT_CONFIG_RESOURCE).read_text("utf-8")
    return load_category_table(text)
