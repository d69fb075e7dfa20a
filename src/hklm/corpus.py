"""Multi-format document model, JSONL corpus interchange, tokenizer, vocabulary."""

from __future__ import annotations

import hashlib
import json
import logging
import re
import string
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

logger = logging.getLogger(__name__)

# Fixed special-token ids. Non-special tokens start at NUM_SPECIAL.
PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
MASK_ID = 4
SEP0_ID = 5
SEPI_IDS = tuple(range(6, 14))  # [SEP1]..[SEP8]
ENT_ID = 14
REL_ID = 15
NUM_SPECIAL = 16
MAX_TRIPLES_PER_EXAMPLE = len(SEPI_IDS)

SPECIAL_TOKENS = (
    ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[SEP0]"]
    + [f"[SEP{i}]" for i in range(1, 9)]
    + ["[ENT]", "[REL]"]
)
assert len(SPECIAL_TOKENS) == NUM_SPECIAL


class CorpusError(ValueError):
    """Malformed corpus stream or invalid corpus-level argument."""


@dataclass
class Triple:
    subject: str
    predicate: str
    object: str

    def to_json(self) -> dict:
        return {"s": self.subject, "p": self.predicate, "o": self.object}


@dataclass
class Section:
    heading: str
    level: int
    paragraphs: list[str]

    def to_json(self) -> dict:
        return {"heading": self.heading, "level": self.level, "paragraphs": list(self.paragraphs)}


@dataclass
class Document:
    entity_id: str
    title: str
    sections: list[Section]
    infobox: list[Triple]

    def headings(self) -> list[str]:
        return [s.heading for s in self.sections]

    def to_json(self) -> dict:
        return {
            "entity_id": self.entity_id,
            "title": self.title,
            "sections": [s.to_json() for s in self.sections],
            "infobox": [t.to_json() for t in self.infobox],
        }


@dataclass
class Corpus:
    documents: list[Document]

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def by_id(self, entity_id: str) -> Document:
        for doc in self.documents:
            if doc.entity_id == entity_id:
                return doc
        raise KeyError(entity_id)

    def predicates(self) -> list[str]:
        """Sorted universe of attributes across the whole KG."""
        return sorted({t.predicate for doc in self.documents for t in doc.infobox})


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_CJK_RANGES = ((0x4E00, 0x9FFF), (0x3400, 0x4DBF), (0xF900, 0xFAFF))
_CJK_CLASS = "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES)
# Each CJK character is its own token; runs of everything else stay joined.
_CORE_PIECE = re.compile(f"[{_CJK_CLASS}]|[^{_CJK_CLASS}]+")
# ASCII-only: str.lower would also fold non-ASCII letters such as "É".
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
# Text of ASCII letters, digits and whitespace only has no punctuation to peel
# and no CJK to split: its tokens are its lowercased whitespace chunks.
_PLAIN_ASCII = re.compile(r"[0-9A-Za-z\s]*", re.ASCII)


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize_text(text: str) -> list[str]:
    """Deterministic surface tokenizer.

    Whitespace split, then each leading/trailing punctuation character becomes
    its own token, CJK characters become single tokens, and ASCII letters are
    lowercased. Total: never raises.
    """
    if text.isascii() and _PLAIN_ASCII.fullmatch(text):
        return text.lower().split()
    tokens: list[str] = []
    for chunk in text.translate(_ASCII_LOWER).split():
        # Letters and digits are never punctuation: most chunks need no peel.
        if chunk[0].isalnum() and chunk[-1].isalnum():
            tokens.extend(_CORE_PIECE.findall(chunk))
            continue
        start, end = 0, len(chunk)
        while start < end and _is_punct(chunk[start]):
            start += 1
        while end > start and _is_punct(chunk[end - 1]):
            end -= 1
        tokens.extend(chunk[:start])
        tokens.extend(_CORE_PIECE.findall(chunk, start, end))
        tokens.extend(chunk[end:])
    return tokens


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------


@dataclass
class Vocab:
    """Token/id bijection with the fixed special-token prefix.

    `encode` memoizes each text's ids, so a text is tokenized once per
    vocabulary however often the pipeline encodes it. The memo is a cache,
    not state: it takes no part in equality, `to_json` or `hash_hex`.
    """

    token_to_id: dict[str, int]
    id_to_token: list[str]
    min_freq: int
    _ids_by_text: dict[str, tuple[int, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, text: str) -> list[int]:
        """Ids of the text's tokens, [UNK] for unknown ones; a fresh list each call."""
        ids = self._ids_by_text.get(text)
        if ids is None:
            ids = self._ids_by_text[text] = tuple(self.encode_tokens(tokenize_text(text)))
        return list(ids)

    def encode_tokens(self, tokens: list[str]) -> list[int]:
        return list(map(self.token_to_id.get, tokens, repeat(UNK_ID)))

    def decode(self, ids: list[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def hash_hex(self) -> str:
        payload = json.dumps(
            {"min_freq": self.min_freq, "tokens": self.id_to_token[NUM_SPECIAL:]},
            ensure_ascii=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_json(self) -> dict:
        return {
            "format": "hklm-vocab",
            "version": 1,
            "min_freq": self.min_freq,
            "tokens": self.id_to_token[NUM_SPECIAL:],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Vocab":
        if obj.get("format") != "hklm-vocab" or obj.get("version") != 1:
            raise CorpusError("unrecognized vocab file format")
        return cls.from_tokens(obj["tokens"], int(obj["min_freq"]))

    @classmethod
    def from_tokens(cls, tokens: list[str], min_freq: int) -> "Vocab":
        id_to_token = SPECIAL_TOKENS + list(tokens)
        token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
        if len(token_to_id) != len(id_to_token):
            raise CorpusError("duplicate token in vocabulary")
        return cls(token_to_id=token_to_id, id_to_token=id_to_token, min_freq=min_freq)


def detokenize(ids: list[int], vocab: Vocab) -> str:
    return " ".join(vocab.decode(ids))


def iter_document_texts(doc: Document):
    for section in doc.sections:
        yield section.heading
        yield from section.paragraphs
    for triple in doc.infobox:
        yield triple.subject
        yield triple.predicate
        yield triple.object


def build_vocab(corpus: Corpus, min_freq: int = 1) -> Vocab:
    """Frequency vocabulary over paragraphs, headings, and triple elements.

    Ids are assigned in descending frequency, ties broken lexicographically,
    starting at NUM_SPECIAL.
    """
    if min_freq < 1:
        raise CorpusError(f"min_freq must be >= 1, got {min_freq}")
    if len(corpus) == 0:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    # Titles, predicates and headings recur across documents: tokenize each
    # distinct text once and weight its tokens by how often the text occurs.
    texts = Counter(text for doc in corpus for text in iter_document_texts(doc))
    tokens = {text: tokenize_text(text) for text in texts}
    counts: Counter[str] = Counter()
    for text, n in texts.items():
        counts.update(tokens[text] * n)
    kept = [(tok, n) for tok, n in counts.items() if n >= min_freq]
    kept.sort(key=lambda kv: (-kv[1], kv[0]))
    vocab = Vocab.from_tokens([tok for tok, _ in kept], min_freq)
    # The pipeline encodes exactly these texts next: keep their ids.
    vocab._ids_by_text = {text: tuple(vocab.encode_tokens(toks)) for text, toks in tokens.items()}
    return vocab


def triple_token_ids(triple: Triple, vocab: Vocab) -> list[int]:
    """Triple serialized as text: subject then predicate then object tokens."""
    return vocab.encode(triple.subject) + vocab.encode(triple.predicate) + vocab.encode(triple.object)


# ---------------------------------------------------------------------------
# JSONL interchange
# ---------------------------------------------------------------------------


def _parse_document(obj: dict, lineno: int) -> Document:
    def fail(msg: str):
        raise CorpusError(f"line {lineno}: {msg}")

    if not isinstance(obj, dict):
        fail("record is not a JSON object")
    for key in ("entity_id", "title", "sections", "infobox"):
        if key not in obj:
            fail(f"missing field {key!r}")
    entity_id = obj["entity_id"]
    title = obj["title"]
    if not isinstance(entity_id, str) or not entity_id:
        fail("entity_id must be a non-empty string")
    if not isinstance(title, str) or not title:
        fail("title must be a non-empty string")
    if not isinstance(obj["sections"], list) or not obj["sections"]:
        fail("sections must be a non-empty list")

    sections = []
    prev_level = None
    for k, sec in enumerate(obj["sections"]):
        if not isinstance(sec, dict):
            fail(f"section {k} is not an object")
        heading = sec.get("heading")
        level = sec.get("level")
        paragraphs = sec.get("paragraphs")
        if not isinstance(heading, str) or not heading:
            fail(f"section {k}: heading must be a non-empty string")
        if not isinstance(level, int) or level < 1:
            fail(f"section {k}: level must be an integer >= 1")
        if prev_level is None:
            if level != 1:
                fail(f"section {k}: first section must have level 1")
        elif level > prev_level + 1:
            fail(f"section {k}: level jumps from {prev_level} to {level}")
        prev_level = level
        if not isinstance(paragraphs, list) or not all(isinstance(p, str) for p in paragraphs):
            fail(f"section {k}: paragraphs must be a list of strings")
        sections.append(Section(heading=heading, level=level, paragraphs=list(paragraphs)))

    triples = []
    seen_po: set[tuple[str, str]] = set()
    for k, tr in enumerate(obj["infobox"]):
        if not isinstance(tr, dict):
            fail(f"triple {k} is not an object")
        s, p, o = tr.get("s"), tr.get("p"), tr.get("o")
        for name, val in (("s", s), ("p", p), ("o", o)):
            if not isinstance(val, str) or not val:
                fail(f"triple {k}: field {name!r} must be a non-empty string")
        if (p, o) in seen_po:
            fail(f"triple {k}: duplicate (predicate, object) pair ({p!r}, {o!r})")
        seen_po.add((p, o))
        if s != title:
            # Infobox scrapes commonly carry display variants; predicate
            # resampling never touches the subject, so repair instead of reject.
            logger.warning(
                "line %d: triple %d subject %r != title %r, rewriting subject", lineno, k, s, title
            )
            s = title
        triples.append(Triple(subject=s, predicate=p, object=o))

    return Document(entity_id=entity_id, title=title, sections=sections, infobox=triples)


def parse_corpus(lines) -> Corpus:
    """Parse line-delimited document records; reject the whole stream on any bad line."""
    documents: list[Document] = []
    seen_ids: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        doc = _parse_document(obj, lineno)
        if doc.entity_id in seen_ids:
            raise CorpusError(
                f"line {lineno}: duplicate entity_id {doc.entity_id!r}"
                f" (first seen on line {seen_ids[doc.entity_id]})"
            )
        seen_ids[doc.entity_id] = lineno
        documents.append(doc)
    return Corpus(documents=documents)


def document_json_line(doc: Document) -> str:
    return json.dumps(doc.to_json(), ensure_ascii=False)


def serialize_corpus(corpus: Corpus) -> list[str]:
    return [document_json_line(doc) for doc in corpus]


def load_corpus(path) -> Corpus:
    with open(path, encoding="utf-8") as fh:
        return parse_corpus(fh)


def write_corpus(corpus: Corpus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in serialize_corpus(corpus):
            fh.write(line + "\n")


def derive_seed(*parts) -> int:
    """64-bit seed from hashing the textual form of the parts, order dependent."""
    payload = "|".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


# ---------------------------------------------------------------------------
# Synthetic corpus generator
# ---------------------------------------------------------------------------

# Topic pool: two-word heading plus marker vocabulary that paragraphs under
# that heading are seeded with, so heading/paragraph matching is learnable.
# Two-word headings survive token masking: both words identify the topic.
TOPIC_MARKERS: dict[str, list[str]] = {
    "ancient history": ["dynasty", "emperor", "ruins", "chronicle", "heritage", "restored", "founded", "relics"],
    "mountain scenery": ["peaks", "mist", "panorama", "cliffs", "sunrise", "valleys", "lookout", "ridgeline"],
    "seasonal climate": ["rainfall", "monsoon", "humidity", "temperate", "breeze", "frost", "sunshine", "chill"],
    "native wildlife": ["herons", "otters", "orchids", "bamboo", "cranes", "gulls", "pines", "lotus"],
    "lantern festivals": ["parade", "drummers", "fireworks", "pilgrims", "carnival", "rituals", "feast", "dancers"],
    "reaching transport": ["shuttle", "cable", "ferry", "tram", "causeway", "terminus", "footpath", "jetty"],
    "street cuisine": ["dumplings", "teahouse", "noodles", "vendors", "skewers", "broth", "pastry", "stalls"],
    "ornate architecture": ["eaves", "columns", "lattice", "masonry", "gilded", "carvings", "courtyards", "beams"],
    "founding legends": ["phoenix", "serpent", "hermit", "prophecy", "maiden", "spirits", "omen", "fable"],
    "walled gardens": ["bonsai", "ponds", "mosses", "pergola", "blossoms", "shrubs", "rockery", "willows"],
    "curated museums": ["exhibits", "scrolls", "porcelain", "bronzes", "gallery", "curators", "artifacts", "jade"],
    "alpine hiking": ["switchbacks", "summit", "scree", "waypost", "ravine", "cairns", "traverse", "basecamp"],
}
TOPICS = sorted(TOPIC_MARKERS)

FILLER_WORDS = [
    "the", "a", "of", "in", "and", "is", "was", "near", "with", "many", "its", "for",
    "most", "this", "area", "visitors", "travellers", "local", "famous", "quiet",
    "scenic", "popular", "small", "grand", "old",
]

# Entity kinds grouped into coarse types; the "type" attribute always carries
# the kind word, which is what makes entity typing learnable.
KIND_GROUPS: dict[str, list[str]] = {
    "nature": ["falls", "lake", "gorge", "grotto"],
    "building": ["palace", "temple", "tower", "pavilion"],
    "route": ["trail", "bridge", "harbor", "market"],
}
KIND_TO_GROUP = {kind: group for group, kinds in KIND_GROUPS.items() for kind in kinds}
KINDS = sorted(KIND_TO_GROUP)

# Attribute universe with per-attribute object pools. Attributes and values
# are two-word phrases whose individual words already identify the attribute,
# so a resampled attribute stays detectable even when one token gets masked.
ATTRIBUTE_POOLS: dict[str, list[str]] = {
    "located region": ["north bank", "south bank", "upper bank", "lower bank"],
    "entry fee": ["ten coins", "twenty coins", "thirty coins", "forty coins", "fifty coins"],
    "star rating": ["bronze stars", "silver stars", "golden stars", "platinum stars"],
    "build style": ["baroque facade", "gothic facade", "imperial facade", "rustic facade", "modern facade"],
    "opened year": ["year 1861", "year 1893", "year 1901", "year 1923", "year 1947", "year 1968"],
    "chief builder": ["mason marek", "mason chen", "mason ito", "mason petra", "mason vega", "mason kato"],
    "guest capacity": ["hundred guests", "thousand guests", "myriad guests"],
    "ground elevation": ["lowland ground", "foothill ground", "highland ground", "plateau ground"],
    "route length": ["short walk", "long walk", "endless walk", "brief walk"],
    "peak season": ["spring visits", "summer visits", "autumn visits", "winter visits"],
    "patron guild": ["guild sailors", "guild farmers", "guild scholars", "guild monks", "guild weavers"],
    "water source": ["deep wells", "karst wells", "glacier wells", "rain wells"],
}
ALIAS_PREDICATE = "also called"
TYPE_PREDICATE = "listed kind"
PREDICATES = sorted(list(ATTRIBUTE_POOLS) + [ALIAS_PREDICATE, TYPE_PREDICATE])

# Relation verbs sprinkled into paragraphs as "<title> <verb> <object>" snippets;
# the open-IE task set reuses them, so they must live in the corpus vocabulary.
RELATION_VERBS = ["overlooks", "adjoins", "predates", "shelters", "honors", "borders"]

# Disjoint syllable alphabets: entity names (which appear in free text) and
# aliases (which must stay KG-only) can never produce the same word.
_NAME_SYLLABLES = ["ka", "lo", "mi", "ra", "zu", "ne", "vi", "ta"]
_ALIAS_SYLLABLES = ["so", "pe", "du", "gal", "ren", "ost", "yul", "bri"]


@dataclass
class SynthParams:
    """Knobs for the synthetic corpus generator; defaults are desk scale."""

    n_sections: tuple[int, int] = (2, 6)
    n_paragraphs: tuple[int, int] = (2, 3)
    paragraph_len: tuple[int, int] = (30, 50)
    n_triples: tuple[int, int] = (4, 12)
    mention_fraction: float = 0.8
    marker_density: float = 0.35
    title_mention_prob: float = 0.6
    relation_snippet_prob: float = 0.35

    def validate(self) -> None:
        for name in ("mention_fraction", "marker_density", "title_mention_prob", "relation_snippet_prob"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise CorpusError(f"{name} must be in [0, 1], got {val}")
        for name in ("n_sections", "n_paragraphs", "paragraph_len", "n_triples"):
            lo, hi = getattr(self, name)
            if not (1 <= lo <= hi):
                raise CorpusError(f"{name} range ({lo}, {hi}) is invalid")
        if self.n_sections[1] > len(TOPICS):
            raise CorpusError(f"n_sections upper bound exceeds topic pool size {len(TOPICS)}")


def _pseudo_word(rng, syllables: list[str]) -> str:
    n = int(rng.integers(2, 5))
    return "".join(syllables[int(rng.integers(0, len(syllables)))] for _ in range(n))


def generate_synthetic_corpus(
    seed: int, n_entities: int, params: SynthParams | None = None
) -> tuple[Corpus, list[dict]]:
    """Deterministic synthetic corpus plus side-channel ground truth.

    Ground truth records, one per entity: which triples are lexically
    mentioned and where, alias tokens (which never appear in free text),
    the entity kind, and its hierarchical type path. These drive oracle
    tests and the synthetic downstream task sets.
    """
    if n_entities < 1:
        raise CorpusError(f"n_entities must be >= 1, got {n_entities}")
    params = params or SynthParams()
    params.validate()

    documents: list[Document] = []
    truths: list[dict] = []
    used_names: set[str] = set()
    for e in range(n_entities):
        rng = np.random.default_rng(derive_seed(seed, "entity", e))
        name = _pseudo_word(rng, _NAME_SYLLABLES)
        while name in used_names:
            name = _pseudo_word(rng, _NAME_SYLLABLES)
        used_names.add(name)
        kind = KINDS[int(rng.integers(0, len(KINDS)))]
        title = f"{name} {kind}"
        entity_id = f"ent{e:05d}"
        group = KIND_TO_GROUP[kind]
        type_path = [f"/{group}", f"/{group}/{kind}"]

        n_sec = int(rng.integers(params.n_sections[0], params.n_sections[1] + 1))
        topics = [str(t) for t in rng.choice(TOPICS, size=n_sec, replace=False)]
        sections: list[Section] = []
        # Paragraphs are built as lists of atomic units (multi-token insertions
        # stay contiguous no matter what gets inserted around them later).
        para_units: list[list[list[list[str]]]] = []  # section -> paragraph -> unit -> tokens
        title_mentions: list[list[int]] = []
        for si, topic in enumerate(topics):
            level = 1 if si == 0 or rng.random() >= 0.25 else 2
            n_par = int(rng.integers(params.n_paragraphs[0], params.n_paragraphs[1] + 1))
            paras: list[list[list[str]]] = []
            for pi in range(n_par):
                n_tok = int(rng.integers(params.paragraph_len[0], params.paragraph_len[1] + 1))
                markers = TOPIC_MARKERS[topic]
                units = [
                    [
                        markers[int(rng.integers(0, len(markers)))]
                        if rng.random() < params.marker_density
                        else FILLER_WORDS[int(rng.integers(0, len(FILLER_WORDS)))]
                    ]
                    for _ in range(n_tok)
                ]
                if rng.random() < params.title_mention_prob:
                    pos = int(rng.integers(0, len(units) + 1))
                    units.insert(pos, [name, kind])
                    title_mentions.append([si, pi])
                if rng.random() < params.relation_snippet_prob:
                    verb = RELATION_VERBS[int(rng.integers(0, len(RELATION_VERBS)))]
                    pool = ATTRIBUTE_POOLS[sorted(ATTRIBUTE_POOLS)[int(rng.integers(0, len(ATTRIBUTE_POOLS)))]]
                    obj = pool[int(rng.integers(0, len(pool)))]
                    pos = int(rng.integers(0, len(units) + 1))
                    units.insert(pos, [name, kind, verb] + tokenize_text(obj))
                    title_mentions.append([si, pi])
                paras.append(units)
            para_units.append(paras)
            sections.append(Section(heading=topic, level=level, paragraphs=[]))

        # Infobox: alias and type always present, the rest sampled without
        # replacement from the attribute pools.
        n_tr = int(rng.integers(params.n_triples[0], params.n_triples[1] + 1))
        n_tr = min(n_tr, len(PREDICATES))
        alias = [_pseudo_word(rng, _ALIAS_SYLLABLES) for _ in range(2)]
        other_preds = [str(p) for p in rng.choice(sorted(ATTRIBUTE_POOLS), size=max(0, n_tr - 2), replace=False)]
        triples: list[Triple] = [
            Triple(title, ALIAS_PREDICATE, " ".join(alias)),
            Triple(title, TYPE_PREDICATE, kind),
        ]
        for pred in other_preds:
            pool = ATTRIBUTE_POOLS[pred]
            triples.append(Triple(title, pred, pool[int(rng.integers(0, len(pool)))]))

        # Mention a fraction of the non-alias triples' objects verbatim in a
        # random paragraph; alias objects stay KG-only by construction.
        mentions: list[dict] = []
        mentioned = []
        for ti, triple in enumerate(triples):
            if triple.predicate == ALIAS_PREDICATE:
                mentioned.append(False)
                continue
            if rng.random() < params.mention_fraction:
                si = int(rng.integers(0, len(para_units)))
                pi = int(rng.integers(0, len(para_units[si])))
                units = para_units[si][pi]
                pos = int(rng.integers(0, len(units) + 1))
                units.insert(pos, tokenize_text(triple.object))
                mentions.append({"triple": ti, "p": triple.predicate, "o": triple.object, "section": si, "paragraph": pi})
                mentioned.append(True)
            else:
                mentioned.append(False)

        for si, sec in enumerate(sections):
            sec.paragraphs = [
                " ".join(tok for unit in units for tok in unit) for units in para_units[si]
            ]

        documents.append(Document(entity_id=entity_id, title=title, sections=sections, infobox=triples))
        truths.append(
            {
                "entity_id": entity_id,
                "title": title,
                "name": name,
                "kind": kind,
                "group": group,
                "type_path": type_path,
                "alias": alias,
                "mentions": mentions,
                "object_mentioned": mentioned,
                "title_mentions": title_mentions,
            }
        )

    return Corpus(documents=documents), truths


def write_truth(truths: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in truths:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def load_truth(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
