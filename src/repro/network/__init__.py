"""Deterministic discrete-event network simulation substrate.

The paper's measurements were taken over real links (a 28.8 kbit/s modem and
a 10 Mbit/s Ethernet with emulated asymmetry).  This subpackage replaces
those links with a small, deterministic discrete-event simulator:

* :mod:`repro.network.simulator` / :mod:`repro.network.events` — a
  coroutine-based simulation kernel (processes, timeouts, events);
* :mod:`repro.network.resources` — unbounded FIFO stores used as the
  mailboxes at each end of a channel;
* :mod:`repro.network.link` — directed links with bandwidth and propagation
  latency, byte-accurate accounting;
* :mod:`repro.network.channel` — a duplex client/server channel (downlink +
  uplink) with mailboxes at both ends;
* :mod:`repro.network.topology` — named network configurations, including
  the paper's experimental setups;
* :mod:`repro.network.stats` — per-link and per-channel transfer statistics.
"""

from repro.network.simulator import Simulator
from repro.network.events import Event, Timeout, Process
from repro.network.resources import Store
from repro.network.message import Message, MessageKind
from repro.network.link import Link
from repro.network.channel import Channel
from repro.network.topology import NetworkConfig
from repro.network.stats import LinkStats, ChannelStats

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Store",
    "Message",
    "MessageKind",
    "Link",
    "Channel",
    "NetworkConfig",
    "LinkStats",
    "ChannelStats",
]
