"""The BaaV model: KV schemas, keyed blocks, stores and maintenance."""

from repro.baav.block import Block, BlockStats, split_block
from repro.baav.maintenance import Maintainer
from repro.baav.schema import BaaVSchema, KVSchema, kv_schema, taav_equivalent_schema
from repro.baav.store import BaaVStore, KVInstance

__all__ = [
    "BaaVSchema",
    "BaaVStore",
    "Block",
    "BlockStats",
    "KVInstance",
    "KVSchema",
    "Maintainer",
    "kv_schema",
    "split_block",
    "taav_equivalent_schema",
]
