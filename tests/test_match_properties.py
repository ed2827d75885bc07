"""Property-based tests for the OpenFlow match and flow-table semantics."""

from hypothesis import given, settings, strategies as st

from repro.net.addresses import IpAddress, MacAddress
from repro.net.packet import Packet, Vlan
from repro.openflow.actions import Output
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import Match

macs = st.integers(0, (1 << 48) - 1).map(MacAddress)
ips = st.integers(0, (1 << 32) - 1).map(IpAddress)
ports = st.integers(0, 65535)


@st.composite
def packets(draw):
    vlan = draw(st.one_of(st.none(), st.integers(0, 4095).map(Vlan)))
    return Packet.udp(
        draw(macs), draw(macs), draw(ips), draw(ips),
        draw(ports), draw(ports),
        payload=draw(st.binary(max_size=32)),
        ident=draw(st.integers(0, 0xFFFF)),
        vlan=vlan,
    )


MATCH_FIELDS = (
    "in_port", "dl_src", "dl_dst", "dl_vlan", "dl_type",
    "nw_src", "nw_dst", "nw_proto", "tp_src", "tp_dst",
)


@given(packets(), st.integers(1, 8))
@settings(max_examples=150)
def test_from_packet_always_self_matches(packet, in_port):
    match = Match.from_packet(packet, in_port=in_port)
    assert match.matches(packet, in_port)


@given(packets(), st.integers(1, 8), st.sets(st.sampled_from(MATCH_FIELDS)))
@settings(max_examples=150)
def test_wildcarding_only_widens(packet, in_port, fields_to_clear):
    """Clearing match fields can never stop a packet from matching."""
    match = Match.from_packet(packet, in_port=in_port)
    for field in fields_to_clear:
        setattr(match, field, None)
    assert match.matches(packet, in_port)


@given(packets(), st.integers(1, 8))
@settings(max_examples=100)
def test_match_equality_reflexive_and_hash_consistent(packet, in_port):
    a = Match.from_packet(packet, in_port)
    b = Match.from_packet(packet, in_port)
    assert a == b and hash(a) == hash(b)


@given(
    packets(),
    st.lists(
        st.tuples(st.integers(0, 31), st.booleans()),  # (priority, matches?)
        min_size=1,
        max_size=10,
    ),
)
@settings(max_examples=150)
def test_lookup_equals_bruteforce_max_priority(packet, entry_specs):
    """FlowTable.lookup == argmax over matching entries by (priority,
    -insertion index)."""
    table = FlowTable()
    entries = []
    other = Match(dl_dst=MacAddress((int(packet.eth.dst) + 1) % (1 << 48)))
    for priority, should_match in entry_specs:
        match = Match.from_packet(packet, 1) if should_match else other
        entry = FlowEntry(match, [Output(1)], priority=priority)
        # skip (match, priority) duplicates: OF replaces those
        if any(e.priority == priority and e.match == match for e in entries):
            continue
        table.add(entry)
        entries.append(entry)

    got = table.lookup(packet, 1, now=0.0)
    candidates = [
        (i, e) for i, e in enumerate(entries) if e.match.matches(packet, 1)
    ]
    if not candidates:
        assert got is None
    else:
        best = min(candidates, key=lambda pair: (-pair[1].priority, pair[0]))[1]
        assert got is best


@given(
    st.lists(st.tuples(st.floats(0.1, 5.0), st.booleans()), min_size=1, max_size=8),
    st.floats(0.0, 10.0),
)
@settings(max_examples=100)
def test_sweep_removes_exactly_the_expired(timeout_specs, now):
    table = FlowTable()
    for i, (timeout, use_hard) in enumerate(timeout_specs):
        table.add(
            FlowEntry(
                Match(in_port=i + 1),
                [Output(1)],
                priority=i,
                hard_timeout=timeout if use_hard else 0.0,
                idle_timeout=0.0 if use_hard else timeout,
                created_at=0.0,
            )
        )
    before = table.entries
    swept = table.sweep_expired(now)
    assert {id(e) for e in swept} == {
        id(e) for e in before if e.expired(now) is not None
    }
    for entry in table:
        assert entry.expired(now) is None
