"""Checks that recompute a finished game's figures from its transcript alone.

``total_error`` recounts the counted error at any exponent,
``verify_transcript_legality`` re-certifies the game from its recorded lie
flags and true values, and ``scale_transcript`` applies the class-scaling
identity to a whole transcript. The engine tests and criterion 8 check
``run_game``'s transcripts against them.
"""

import math

from smoothgame.adversaries import Disclosure, verify_legality
from smoothgame.engine import Transcript, TrialRecord
from smoothgame.interpolation import SampleSet, error_power


def total_error(tr: Transcript, p: float) -> float:
    """Recompute the counted error total at exponent p from the records."""
    for r in tr.trials:
        if r.true_value is None:
            raise ValueError("transcript lacks ground truth; finalize the game first")
    return math.fsum(error_power(r.prediction - r.true_value, p) for r in tr.trials if r.counted)


def verify_transcript_legality(tr: Transcript) -> bool:
    """Re-certify a finished transcript from its own records.

    Rebuilds the truth witness from the recorded true values and applies
    the lie-budget and feasibility checks at the config's ``eta`` and
    ``q``; every query must lie in [0, 1] and every true value must be
    finite, and repeated queries must agree on their true value.
    """
    flags = []
    seen: dict[float, float] = {}
    for r in tr.trials:
        v = r.true_value
        if r.lie is None or v is None:
            raise ValueError("transcript lacks lie flags or ground truth")
        flags.append(r.lie)
        # written so that NaN fails each test
        if not (0.0 <= r.x <= 1.0 and math.isfinite(v)):
            return False
        if r.x in seen and not abs(seen[r.x] - v) <= 1e-12:
            return False
        seen[r.x] = v
    truth = SampleSet.from_pairs(seen.items())
    return verify_legality(tr.trials, Disclosure(flags, truth), tr.config.eta, tr.config.q)


def scale_transcript(tr: Transcript, c: float) -> Transcript:
    """Scale all values by c > 0; counted totals scale by c**p.

    This is the transcript-level form of the class-scaling identity: the
    interpolation-following learner's decisions are linear in the revealed
    values, so a scaled game replays to exactly this transcript.
    """
    if not c > 0.0:
        raise ValueError("scale factor must be positive")
    out = Transcript(tr.config)
    p = tr.config.p
    for r in tr.trials:
        raw = r.raw_error * c
        out.trials.append(
            TrialRecord(
                t=r.t,
                x=r.x,
                prediction=r.prediction * c,
                revealed=r.revealed * c,
                lie=r.lie,
                true_value=None if r.true_value is None else r.true_value * c,
                raw_error=raw,
                p_power=error_power(raw, p),
                counted=r.counted,
            )
        )
    out.counted_total = math.fsum(r.p_power for r in out.trials if r.counted)
    out.perceived_total = math.fsum(
        error_power(r.prediction - r.revealed, p) for r in out.trials if r.counted
    )
    out.legality = tr.legality
    out.stage_count = tr.stage_count
    out.lie_count = tr.lie_count
    return out
