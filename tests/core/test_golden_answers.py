"""Golden answers: Algorithm 1's output and work counters, pinned.

``golden_answers.json`` holds, for every RAND and RULE query of the
DBLP and INEX settings at ``small`` scale, the top-10 answers as
``(tokens, result_type, float.hex(score))`` plus the
``postings_read`` / ``postings_skipped`` / ``groups_processed``
counters of the pass, under five configurations:

* node-type semantics, uniform prior (the default);
* node-type semantics, length prior;
* node-type semantics with ``use_skipping=False`` (§V-C ablation);
* SLCA semantics and ELCA semantics (§VI-B).

Scores compare as ``float.hex`` strings, so any change in summation
order or in the work the merge loop does fails here.  The independent
reference for *what* the answers should be is ``core/naive.py`` (see
``test_cleaner.py`` and the random-tree properties); this test pins
that a refactor of the engine changes nothing at all.

Regenerate (only for a deliberate behaviour change, and say so in the
change log)::

    PYTHONPATH=src python tests/core/test_golden_answers.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.config import XCleanConfig
from repro.core.slca_cleaner import ELCACleanSuggester
from repro.eval.experiments import dblp_setting, eps_for, wiki_setting

FIXTURE = Path(__file__).with_name("golden_answers.json")
SCALE = "small"
KINDS = ("RAND", "RULE")
TOP_K = 10


def _suggester(setting, name: str, max_errors: int):
    if name == "node-uniform":
        return setting.xclean(max_errors=max_errors)
    if name == "node-length":
        return setting.xclean(max_errors=max_errors, prior="length")
    if name == "node-noskip":
        return setting.xclean(max_errors=max_errors, use_skipping=False)
    if name == "slca":
        return setting.xclean_slca(max_errors=max_errors)
    if name == "elca":
        return ELCACleanSuggester(
            setting.corpus,
            generator=setting.generator.fresh_cache(),
            config=XCleanConfig(max_errors=max_errors, gamma=1000),
        )
    raise ValueError(name)


CONFIGS = ("node-uniform", "node-length", "node-noskip", "slca", "elca")
SETTINGS = {"DBLP": dblp_setting, "INEX": wiki_setting}


def capture(dataset: str, config: str) -> list[dict]:
    """The golden records of one (dataset, configuration) pair."""
    setting = SETTINGS[dataset](SCALE)
    records = []
    for kind in KINDS:
        suggester = _suggester(setting, config, eps_for(kind))
        for record in setting.workloads[kind]:
            answers = suggester.suggest(record.dirty_text, TOP_K)
            stats = suggester.last_stats
            records.append(
                {
                    "kind": kind,
                    "query": record.dirty_text,
                    "top": [
                        [list(s.tokens), s.result_type, s.score.hex()]
                        for s in answers
                    ],
                    "postings_read": stats.postings_read,
                    "postings_skipped": stats.postings_skipped,
                    "groups_processed": stats.groups_processed,
                }
            )
    return records


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("dataset", sorted(SETTINGS))
def test_reproduces_golden_answers(golden, dataset, config):
    want = golden[dataset][config]
    got = capture(dataset, config)
    assert len(got) == len(want) == len(KINDS) * len(
        SETTINGS[dataset](SCALE).workloads["RAND"]
    )
    for got_record, want_record in zip(got, want):
        assert got_record == want_record, want_record["query"]


def test_fixture_covers_every_configuration(golden):
    assert sorted(golden) == sorted(SETTINGS)
    for dataset in SETTINGS:
        assert sorted(golden[dataset]) == sorted(CONFIGS)


def _write() -> None:
    payload = {
        dataset: {config: capture(dataset, config) for config in CONFIGS}
        for dataset in sorted(SETTINGS)
    }
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write()
