"""A run whose control messages skip the RIC, for the pass-through identity checks.

`PassThroughPipeline` stands in for `ConflictPipeline` in `experiment.run`:
it serves messages in submission order, allows every one, detects nothing
and never reads or writes the store. A `disabled` run must reproduce the
trajectory of a run built on it bit for bit.
"""

from collections import Counter

import pytest

import ricsim.experiment as experiment
from ricsim.detection import ConflictKind
from ricsim.resolution import Decision, Verdict


class PassThroughPipeline:
    def __init__(self, store, policy, **settings):
        self.calls = 0
        self.allowed_by_xapp = Counter()
        self.blocked_by_xapp = Counter()
        self.conflicts_by_kind = Counter({kind: 0 for kind in ConflictKind})

    def serve_order(self, submissions):
        return list(submissions)

    def process_control_message(self, incoming):
        self.calls += 1
        self.allowed_by_xapp[incoming.xapp_id] += 1
        return Verdict(Decision.ALLOW)

    def on_degradation(self, event):
        return []


def run_bypassing_ric(config, seed):
    """A `disabled` run on `PassThroughPipeline`, and the pipeline it was built on."""
    built = []

    def build(*args, **kwargs):
        built.append(PassThroughPipeline(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "ConflictPipeline", build)
        result = experiment.run(config, "disabled", seed)
    assert len(built) == 1, "run did not build its pipeline through ConflictPipeline"
    return result, built[0]
