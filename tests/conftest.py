import os

from hypothesis import HealthCheck, settings

# some examples mine dozens of databases, so per-example deadlines
# would flag slow examples, not slow code
settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", deadline=None, max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
