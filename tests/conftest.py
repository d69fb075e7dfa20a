import json
import os

import pytest
from hypothesis import settings

from hklm import encoder
from hklm.align import align_corpus, build_tfidf_index, fragment_corpus
from hklm.corpus import build_vocab, generate_synthetic_corpus, parse_corpus
from hklm.pretrain import TrainConfig

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")


@pytest.fixture()
def cores(monkeypatch):
    """Sets the cores the encoder's threads see, `n` of them, as if the
    process had that many. Each is the first core the process may run on, so
    a one-core machine still runs every thread, all on that core."""
    core = min(os.sched_getaffinity(0))
    return lambda n: monkeypatch.setattr(encoder, "_usable_cores", lambda: [core] * n)


# Pretraining's default fragment length and retrieval thresholds.
DEFAULTS = TrainConfig()


def align_whole(corpus, vocab, tau=DEFAULTS.tau, k_max=DEFAULTS.k_max,
                max_len=DEFAULTS.max_fragment_len):
    """`align_corpus` over the whole corpus, fragmented and indexed as one split."""
    fragments = fragment_corpus(corpus, vocab, max_len)
    return align_corpus(corpus, vocab, fragments, build_tfidf_index(corpus, vocab, fragments), tau, k_max)


def doc_line(entity_id, title, sections, infobox):
    return json.dumps(
        {
            "entity_id": entity_id,
            "title": title,
            "sections": [
                {"heading": h, "level": lvl, "paragraphs": paras} for h, lvl, paras in sections
            ],
            "infobox": [{"s": s, "p": p, "o": o} for s, p, o in infobox],
        }
    )


@pytest.fixture(scope="session")
def tiny_corpus():
    lines = [
        doc_line(
            "e1",
            "stone palace",
            [
                ("history", 1, ["the stone palace was built near the river", "kings lived in the palace museum, as locals say"]),
                ("gardens", 1, ["mossy ponds surround the stone palace gardens"]),
            ],
            [("stone palace", "location", "river north"), ("stone palace", "opened", "1901")],
        ),
        doc_line(
            "e2",
            "iron bridge",
            [("transport", 1, ["the iron bridge carries a tram across the river"])],
            [("iron bridge", "location", "river south"), ("iron bridge", "builder", "chen")],
        ),
        doc_line(
            "e3",
            "misty lake",
            [
                ("scenery", 1, ["mist rises over the misty lake at sunrise"]),
                ("wildlife", 2, ["herons wade along the misty lake shore"]),
            ],
            [("misty lake", "season", "autumn")],
        ),
    ]
    return parse_corpus(lines)


@pytest.fixture(scope="session")
def tiny_vocab(tiny_corpus):
    return build_vocab(tiny_corpus, 1)


@pytest.fixture(scope="session")
def hand5_corpus():
    """Five hand-written documents for the TF-IDF oracle-equivalence checks:
    6 fragments + 9 triples = 15 index documents under the default packing."""
    lines = [
        doc_line(
            "d1",
            "alpha falls",
            [("views", 1, ["alpha falls roars over granite cliffs", "mist and spray drift from alpha falls"])],
            [("alpha falls", "height", "granite cliffs"), ("alpha falls", "season", "spring melt")],
        ),
        doc_line(
            "d2",
            "beta lake",
            [("shore", 1, ["calm beta lake mirrors the granite peaks"])],
            [("beta lake", "depth", "deep basin"), ("beta lake", "season", "summer")],
        ),
        doc_line(
            "d3",
            "gamma temple",
            [
                ("halls", 1, ["gamma temple halls hold bronze bells", "bronze bells ring at the gamma temple"]),
                ("courtyard", 2, ["stone lanterns line the temple courtyard"]),
            ],
            [("gamma temple", "builder", "old masons"), ("gamma temple", "bells", "bronze bells")],
        ),
        doc_line(
            "d4",
            "delta garden",
            [("plants", 1, ["willow shade covers the delta garden paths"])],
            [("delta garden", "keeper", "quiet monks")],
        ),
        doc_line(
            "d5",
            "epsilon tower",
            [("history", 1, ["epsilon tower watched the harbor for ages", "granite blocks form the epsilon tower base"])],
            [("epsilon tower", "height", "tall spire"), ("epsilon tower", "stone", "granite blocks")],
        ),
    ]
    return parse_corpus(lines)


@pytest.fixture(scope="session")
def synth20():
    corpus, truth = generate_synthetic_corpus(7, 20)
    return corpus, truth


@pytest.fixture(scope="session")
def synth20_vocab(synth20):
    corpus, _ = synth20
    return build_vocab(corpus, 1)
