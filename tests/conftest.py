"""Settings shared by every test directory.

Hypothesis profiles: property tests take their example budgets from
the active profile through :func:`budget`.  Tier-1 runs under
hypothesis' own default profile, and ``deep`` runs ten times as many
examples, for instance:

    PYTHONPATH=src python -m pytest tests/core/test_apointer.py \\
        --hypothesis-profile deep -k "AgainstLaneArrays or AgainstBallotLoop"

pytest imports this file before hypothesis loads the profile that
``--hypothesis-profile`` names, for any path under ``tests``, so
``deep`` is registered by then.
"""

from hypothesis import settings

TIER1_EXAMPLES = settings.get_profile("default").max_examples
settings.register_profile("deep", max_examples=10 * TIER1_EXAMPLES)


def budget(examples: int) -> int:
    """A test's tier-1 example budget, scaled by the active profile."""
    return examples * settings.default.max_examples // TIER1_EXAMPLES
