"""Single-granularity GPV cache — the *Flow baseline (§5.1, Fig 6/13).

A GPV stores a flow key plus a variable-length list of packet metadata at
*one* granularity.  An application needing features at k granularities
must run k independent GPV instances, each holding its own copy of every
packet's metadata — the linear memory/bandwidth growth that Fig 13
contrasts with MGPV's single shared copy.

A GPV cache is an MGPV whose CG and FG coincide: with the FG table
sized and indexed like the short buffers no FG collision evicts anything,
so only the wire differs — no sync crosses (the group key *is* the only
key), and a record carries the (possibly wider) group key.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.granularity import Granularity
from repro.switchsim.mgpv import MGPVCache, MGPVConfig


class GPVCache(MGPVCache):
    """One-granularity grouped packet vectors, *Flow style."""

    def __init__(self, granularity: Granularity,
                 config: MGPVConfig | None = None,
                 metadata_fields: tuple[str, ...] = ("size", "tstamp"),
                 ) -> None:
        config = config or MGPVConfig()
        super().__init__(granularity, granularity, replace(
            config, fg_table_size=config.n_short,
            cg_key_bytes=max(granularity.key_bytes, 4)), metadata_fields)
        self.granularity = granularity

    def memory_bytes(self) -> int:
        """SRAM footprint of this instance: buffers + per-group keys
        (no FG table)."""
        cfg = self.config
        return cfg.sram_bytes - cfg.fg_table_size * cfg.fg_key_bytes

    def _resolve_fg(self, route: tuple, inserting_slot: int,
                    events: list) -> None:
        # The table entry is bookkeeping only: no sync crosses the wire.
        super()._resolve_fg(route, inserting_slot, [])
        self.stats.syncs_out -= 1
        self.stats.bytes_out -= 2 + self.config.fg_key_bytes
