"""Tests for MAC and IPv4 address value types."""

import copy
import pickle

import pytest

from repro.net.addresses import IpAddress, MacAddress


class TestMacAddress:
    def test_parse_string(self):
        mac = MacAddress("02:00:00:00:00:01")
        assert int(mac) == 0x020000000001
        assert str(mac) == "02:00:00:00:00:01"

    def test_from_int_and_bytes_roundtrip(self):
        mac = MacAddress(0xAABBCCDDEEFF)
        assert MacAddress(mac.to_bytes()) == mac
        assert mac.to_bytes() == bytes.fromhex("aabbccddeeff")

    def test_copy_constructor(self):
        mac = MacAddress("02:00:00:00:00:01")
        assert MacAddress(mac) == mac

    @pytest.mark.parametrize(
        "bad", ["02:00:00:00:00", "0g:00:00:00:00:01", "020000000001", ""]
    )
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(ValueError):
            MacAddress(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(ValueError):
            MacAddress(1 << 48)
        with pytest.raises(ValueError):
            MacAddress(-1)

    def test_wrong_byte_length_rejected(self):
        with pytest.raises(ValueError):
            MacAddress(b"\x00" * 5)

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            MacAddress(1.5)

    def test_broadcast(self):
        assert MacAddress.BROADCAST.is_broadcast
        assert MacAddress.BROADCAST.is_multicast
        assert not MacAddress("02:00:00:00:00:01").is_broadcast

    def test_multicast_bit(self):
        assert MacAddress("01:00:5e:00:00:01").is_multicast
        assert not MacAddress("02:00:00:00:00:01").is_multicast

    def test_from_index_unique_and_local(self):
        a, b = MacAddress.from_index(1), MacAddress.from_index(2)
        assert a != b
        assert not a.is_multicast  # locally administered but unicast

    def test_from_index_out_of_range(self):
        with pytest.raises(ValueError):
            MacAddress.from_index(1 << 40)

    def test_hashable_and_ordered(self):
        a, b = MacAddress.from_index(1), MacAddress.from_index(2)
        assert len({a, b, MacAddress.from_index(1)}) == 2
        assert a < b

    def test_repr(self):
        assert "02:00:00:00:00:01" in repr(MacAddress("02:00:00:00:00:01"))


class TestIpAddress:
    def test_parse_string(self):
        ip = IpAddress("10.0.0.1")
        assert int(ip) == (10 << 24) | 1
        assert str(ip) == "10.0.0.1"

    def test_bytes_roundtrip(self):
        ip = IpAddress("192.168.1.254")
        assert IpAddress(ip.to_bytes()) == ip

    @pytest.mark.parametrize("bad", ["10.0.0", "256.0.0.1", "a.b.c.d", ""])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            IpAddress(bad)

    def test_out_of_range_int(self):
        with pytest.raises(ValueError):
            IpAddress(1 << 32)

    def test_from_index(self):
        assert str(IpAddress.from_index(1)) == "10.0.0.1"
        assert str(IpAddress.from_index(300)) == "10.0.1.44"

    def test_hashable_and_ordered(self):
        a, b = IpAddress("10.0.0.1"), IpAddress("10.0.0.2")
        assert len({a, b}) == 2
        assert a < b

    def test_not_equal_to_mac(self):
        assert IpAddress("10.0.0.1") != MacAddress.from_index(1)


class TestAddressesAreInts:
    """Addresses are what the header fields are on the wire: unsigned
    ints, with int's own C-level hashing, equality and ordering."""

    ADDRESSES = (
        MacAddress("02:00:00:00:00:01"),
        MacAddress.BROADCAST,
        IpAddress("10.0.0.1"),
        IpAddress(0),
    )

    @pytest.mark.parametrize("cls", [MacAddress, IpAddress])
    def test_int_subclass_without_own_comparisons(self, cls):
        assert issubclass(cls, int)
        for name in ("__eq__", "__hash__", "__int__", "__lt__", "__dict__"):
            assert name not in vars(cls)

    @pytest.mark.parametrize("address", ADDRESSES)
    def test_equal_and_hashed_as_the_int_it_holds(self, address):
        value = int(address)
        assert address == value and type(address)(value) == address
        # int's own hash: the value itself, whatever PYTHONHASHSEED is
        assert hash(address) == hash(value) == value
        assert {value: "x"}[address] == "x"

    @pytest.mark.parametrize("address", ADDRESSES)
    def test_building_from_an_instance_returns_it(self, address):
        assert type(address)(address) is address

    @pytest.mark.parametrize("address", ADDRESSES)
    def test_pickle_and_copy_round_trip(self, address):
        for clone in (
            pickle.loads(pickle.dumps(address)),
            copy.copy(address),
            copy.deepcopy(address),
        ):
            assert type(clone) is type(address) and clone == address
            assert str(clone) == str(address)

    def test_renderings_are_unchanged(self):
        mac, ip = MacAddress(0x0200000000FF), IpAddress("192.168.1.254")
        assert (str(mac), repr(mac)) == (
            "02:00:00:00:00:ff", "MacAddress('02:00:00:00:00:ff')"
        )
        assert (str(ip), repr(ip)) == ("192.168.1.254", "IpAddress('192.168.1.254')")
        assert (f"{mac}", f"{ip}") == (str(mac), str(ip))
        assert mac.to_bytes() == bytes.fromhex("0200000000ff")
        assert ip.to_bytes() == bytes([192, 168, 1, 254])

    def test_records_render_addresses_not_numbers(self, tmp_path):
        import json

        from repro.obs.events import EventLogWriter
        from repro.obs.events import sanitise_value

        mac, ip = MacAddress.from_index(1), IpAddress.from_index(1)
        assert sanitise_value(mac) == repr(mac)
        assert sanitise_value({"ips": [ip, 7]}) == {"ips": [repr(ip), 7]}
        assert sanitise_value(7) == 7 and sanitise_value(True) is True
        path = tmp_path / "events.jsonl"
        writer = EventLogWriter(str(path))
        writer.append("farm.task.digest", "t", runner="r", key="k", mac=mac, ip=ip)
        writer.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        digest = next(e for e in events if e["kind"] == "farm.task.digest")
        assert digest["data"] == {"runner": "r", "key": "k", "mac": repr(mac), "ip": repr(ip)}
