"""Transports: how combiner bytes move between elements.

The combiner's own messages (hub fan-out, collect, release) move
through :class:`~repro.transport.base.Transport` /
:class:`~repro.transport.base.Session` objects instead of DES ports
directly.  A session is one directed stream for one role at one vote
scope and counts the messages it sends and is handed; each combiner
endpoint and compare host builds its own transport.  Plain forwarding
(the untrusted routers, the virtual edges) sends on the port and is
counted once, by the link direction it crosses.  Two byte-moving
backends exist:

* :class:`~repro.transport.des.DesTransport` — the discrete-event
  backend: sessions wrap :class:`~repro.net.node.Port` objects, frame
  the collect/release metadata and count; every record stays
  bit-identical to the pre-transport code;
* :class:`~repro.transport.udp.UdpTransport` — a real-time asyncio
  backend framing the same wire images into localhost UDP datagrams, so
  the *same* ``CompareCore``/``QuarantineController`` code votes over
  actual sockets between processes (``python -m repro live``).

See DESIGN.md §14 for the interface contract.
"""

# The names frozen ``bench/`` imports from the package (DESIGN §6).
from repro.transport.base import ROLE_COLLECT, SessionSpec
from repro.transport.des import DesTransport
