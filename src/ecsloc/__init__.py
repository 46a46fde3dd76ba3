"""Client-subnet location toolkit.

Models how a device-chosen region, carried in the EDNS0 client-subnet
option, steers one domain name to region-appropriate servers, and measures
what that does to IoT traffic profiles and allowlists.
"""

from .errors import Error
from .wire import (
    DnsMessage,
    EcsOption,
    EdnsOpt,
    Question,
    ResourceRecord,
    decode_message,
    encode_message,
    truncate_to_prefix,
)
from .zone import GeoZone, LocationPrefixMap
from .resolver import (
    Authoritative,
    DeviceConfig,
    Forward,
    Resolver,
    RewriteClientSubnet,
    Strip,
    VirtualClock,
    run_scenario,
    stub_query,
)
from .traffic import (
    CaptureLog,
    CaptureRecord,
    collapse_pools,
    cumulative_counts,
    domain_set,
    ingest_log,
    ipbs,
    jaccard,
    parse_log,
    similarity_matrix,
    stabilization_time,
    uds,
)
from .mud import (
    Ace,
    AceTemplate,
    MudFile,
    RegionDomainGroup,
    domain_count,
    ecs_collapse,
    generate_mud,
    parse_mud,
    reduction_ratio,
    serialize_mud,
    suggest_groups,
    unify,
)

__version__ = "0.1.0"
