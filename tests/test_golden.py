"""Golden protocol corpus: verdicts, transcripts, parameters, CLI reports and
closed-form bit counts stay byte-identical to the recorded corpus."""

import json

from golden.record import CORPUS, corpus


def test_corpus_matches_recording():
    recorded = json.loads(CORPUS.read_text())
    current = corpus()
    for tag, digest in recorded.items():
        assert tag in current, f"golden record {tag!r} is no longer produced"
        assert current[tag] == digest, f"first differing golden record: {tag!r}"
    extra = [tag for tag in current if tag not in recorded]
    assert not extra, f"unrecorded golden records, first {extra[0]!r}"
