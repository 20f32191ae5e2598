import os

from hypothesis import HealthCheck, settings

from maxpat.domains import ITEMSET
from maxpat.reductions import REDUCTION_IDS, bind_reduction

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


#: every registered id that reaches itemsets, and two chains that do: the
#: encodings the miner's index-space path is checked on
ITEMSET_ENCODINGS = tuple(
    rid for rid in REDUCTION_IDS
    if bind_reduction(rid).target_domain == ITEMSET) + (
    "compose:fis2tree,g2bdg3,g2fis", "compose:fis2seq,seq2dag,dirg2fis")
