"""Federated quad-pattern querying over access-controlled personal data
pods, with privacy-preserving summaries for client-side source selection."""

from .quads import (
    DEFAULT_GRAPH,
    COMPONENTS,
    ParseError,
    Quad,
    QuadPattern,
    Term,
    Variable,
    blank,
    iri,
    literal,
    parse_quads,
    pattern_matches,
    serialize_quad,
    serialize_quads,
)
from .policy import (
    DENY_OVERRIDES,
    PERMIT,
    PERMIT_OVERRIDES,
    PROHIBIT,
    PUBLIC_KEY,
    TIER_ACQUAINTANCES,
    TIER_EVERYONE,
    TIER_FRIENDS,
    AccessPolicy,
    Identity,
    KeyRing,
    KeyStore,
    PolicyError,
    PolicyKeyMap,
    SubjectGroup,
    allowed_access,
    create_access_keys,
    keyring_for,
)
from .summary import (
    ANY_SOURCE,
    AmfParams,
    BloomFilter,
    ExactFilter,
    FormatError,
    ParamsMismatchError,
    Summary,
    create_file_summary,
    false_positive_rate,
    summary_add,
    summary_combine,
    summary_contains,
)
from .pod import Pod, PodFile, UnknownFileError
from .aggregator import Aggregator, create_aggregated_summary
from .client import (
    SelectionReport,
    federated_query,
    query_sources,
    select_sources,
)
from .harness import (
    ANONYMOUS,
    Federation,
    ScenarioError,
    bundled_scenario_path,
    load_scenario,
    parse_pattern_text,
)
from .experiments import (
    FprReport,
    LeakageReport,
    fpr_experiment,
    leakage_experiment,
    restricted_terms,
)

__version__ = "0.1.0"
