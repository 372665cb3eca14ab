"""p-party secret sharing of point functions for anonymous writes.

A point function is zero everywhere except one index alpha, where it
equals beta. Each writer splits such a function into p keys, one per
server; XORing all servers' evaluations at any index x reconstructs
f(x), while any p-1 keys look like random noise.

The construction views the 2^n-index domain as a grid of 2^ceil(n/2)
rows by 2^floor(n/2) columns. Per row there are 2^(p-1) random 16-byte
seeds, each expanding to a full row of output bytes through
crypto.keystream_many, the package's one keystream expander, plus
2^(p-1) shared correction words of the same width.
Every party holds a per-row selection mask saying which seed/word pairs
it XORs together. Stacked across parties, each selection column has even
parity on ordinary rows (so expansions cancel pairwise) and odd parity
on alpha's row, where the correction words are constrained so the
surviving combination equals beta at alpha's column and zero elsewhere.
Unselected seed slots hold per-party random filler so no single key
carries the full seed material of any row.

Servers accumulate full evaluations of every key received during an
epoch into a delta database, then exchange deltas; the XOR of all deltas
is the same plaintext database on every server.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import combinations
from random import Random, SystemRandom

import numpy as np

from . import crypto

SEED_LEN = 16
# Slot header: u16 message length followed by its ones' complement.
# The redundant half makes a random slot pass validation with
# probability ~2^-32 instead of ~2^-8, so partial or garbled databases
# never decode as legitimate messages.
SLOT_HEADER_LEN = 4
# Selection sampling enumerates all 2^p party subsets, and a key holds
# 2^(p-1) seeds per row, so p stays small; scenarios use 2 or 3 servers.
MAX_PARTIES = 8
# Header of a key encoding: party index, input bits, party count, u32 output_len.
_KEY_HEADER_LEN = 7
# Row bytes expanded per chunk of _fold_rows.
_EVAL_CHUNK_BYTES = 1 << 18


class SealedEpochError(Exception):
    """Accumulation attempted on an epoch that is no longer open."""


class EpochInvalid(Exception):
    """Servers disagree on the client set; the epoch is discarded."""


@dataclass(frozen=True)
class DpfParams:
    """Domain, payload and party geometry for one point-function family."""

    input_bits: int
    output_len: int
    party_count: int

    def __post_init__(self) -> None:
        if not 1 <= self.input_bits <= 24:
            raise ValueError(f"input_bits must be in [1, 24], got {self.input_bits}")
        if self.output_len < 1:
            raise ValueError("output_len must be >= 1")
        if not 2 <= self.party_count <= MAX_PARTIES:
            raise ValueError(f"party_count must be in [2, {MAX_PARTIES}], got {self.party_count}")

    @property
    def domain_size(self) -> int:
        return 1 << self.input_bits

    @property
    def grid_rows(self) -> int:
        return 1 << ((self.input_bits + 1) // 2)

    @property
    def grid_cols(self) -> int:
        return 1 << (self.input_bits // 2)

    @property
    def seeds_per_row(self) -> int:
        return 1 << (self.party_count - 1)

    @property
    def word_len(self) -> int:
        """Bytes in one grid row: a correction word or a seed expansion."""
        return self.grid_cols * self.output_len

    @property
    def mask_bytes(self) -> int:
        return (self.seeds_per_row + 7) // 8

    @property
    def key_len(self) -> int:
        """Length of one party's key encoding."""
        return (
            _KEY_HEADER_LEN
            + self.grid_rows * self.seeds_per_row * SEED_LEN
            + self.seeds_per_row * self.word_len
            + self.grid_rows * self.mask_bytes
        )


@dataclass
class DpfKey:
    """One party's share of a point function, held in its wire layout."""

    party_index: int
    params: DpfParams
    row_seeds: np.ndarray  # uint8 (grid_rows, seeds_per_row, SEED_LEN)
    correction_words: np.ndarray  # uint8 (seeds_per_row, word_len)
    selection: np.ndarray  # bool (grid_rows, seeds_per_row): the slots each row XORs

    def to_bytes(self) -> bytes:
        p = self.params
        masks = np.packbits(self.selection, axis=1, bitorder="little")
        return b"".join([
            bytes([self.party_index, p.input_bits, p.party_count]),
            p.output_len.to_bytes(4, "little"),
            self.row_seeds.tobytes(),
            self.correction_words.tobytes(),
            masks.tobytes(),
        ])

    @classmethod
    def from_bytes(cls, blob: bytes) -> "DpfKey":
        if len(blob) < _KEY_HEADER_LEN:
            raise ValueError("truncated key encoding")
        party_index, input_bits, party_count = blob[0], blob[1], blob[2]
        output_len = int.from_bytes(blob[3:7], "little")
        p = DpfParams(input_bits, output_len, party_count)
        if party_index >= party_count:
            raise ValueError(f"party index {party_index} outside {party_count} parties")
        if len(blob) != p.key_len:
            raise ValueError(f"key encoding must be {p.key_len} bytes, got {len(blob)}")
        data = np.frombuffer(blob, dtype=np.uint8)
        words_at = _KEY_HEADER_LEN + p.grid_rows * p.seeds_per_row * SEED_LEN
        masks_at = words_at + p.seeds_per_row * p.word_len
        return cls(
            party_index,
            p,
            data[_KEY_HEADER_LEN:words_at].reshape(p.grid_rows, p.seeds_per_row, SEED_LEN),
            data[words_at:masks_at].reshape(p.seeds_per_row, p.word_len),
            _unpack_selection(data[masks_at:].reshape(p.grid_rows, p.mask_bytes), p.seeds_per_row),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DpfKey):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()


def _unpack_selection(masks: np.ndarray, slots: int) -> np.ndarray:
    """Little-endian bit masks, (..., mask_bytes) uint8, as (..., slots) bools."""
    bits = np.unpackbits(masks, axis=-1, bitorder="little").view(bool)
    # A set spare bit would be dropped on re-encoding.
    if bits[..., slots:].any():
        raise ValueError(f"selection mask sets a bit past slot {slots - 1}")
    return bits[..., :slots]


def _resolve_rng(rng: Random | int | None) -> Random:
    if isinstance(rng, Random):
        return rng
    if rng is None:
        return SystemRandom()
    return Random(rng)


def _random_bytes(rng: Random, shape: tuple[int, ...]) -> np.ndarray:
    return np.frombuffer(rng.randbytes(int(np.prod(shape))), dtype=np.uint8).reshape(shape)


def _even_odd_patterns(party_count: int) -> tuple[list[int], list[int]]:
    even = [v for v in range(1 << party_count) if bin(v).count("1") % 2 == 0]
    odd = [v for v in range(1 << party_count) if bin(v).count("1") % 2 == 1]
    return even, odd


def _sample_selection_matrix(
    rng: Random, patterns: tuple[list[int], list[int]], party_count: int, slots: int, special: bool
) -> list[int]:
    """Per-party selection masks for one row; ``patterns`` is _even_odd_patterns(party_count).

    Column parity is odd on the special row and even elsewhere. Sampling
    rejects degenerate matrices: no party may select nothing, and no
    strict subset of parties may combine to the empty selection (its
    share of the row would be all zeros) or, on the special row, to the
    full selection (it would reconstruct the row outright).
    """
    pool = patterns[1] if special else patterns[0]
    full_mask = (1 << slots) - 1
    for _ in range(10_000):
        cols = [rng.choice(pool) for _ in range(slots)]
        rows = [
            sum(((col >> t) & 1) << l for l, col in enumerate(cols))
            for t in range(party_count)
        ]
        ok = True
        for size in range(1, party_count):
            for subset in combinations(range(party_count), size):
                x = 0
                for t in subset:
                    x ^= rows[t]
                if x == 0 or (special and x == full_mask):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return rows
    raise RuntimeError("could not sample a non-degenerate selection matrix")


def dpf_gen(
    alpha: int, beta: bytes, params: DpfParams, rng: Random | int | None = None
) -> list[DpfKey]:
    """Split the point function (alpha -> beta) into party_count keys.

    ``rng`` is a Random, an int seed, or None for the OS CSPRNG.
    """
    if not 0 <= alpha < params.domain_size:
        raise ValueError(f"alpha {alpha} outside domain of size {params.domain_size}")
    if len(beta) != params.output_len:
        raise ValueError(f"beta must be {params.output_len} bytes, got {len(beta)}")
    rng = _resolve_rng(rng)
    rows, cols = params.grid_rows, params.grid_cols
    parties, slots = params.party_count, params.seeds_per_row
    word_len = params.word_len
    special_row, special_col = divmod(alpha, cols)

    # One randbytes(16 * n) call returns the bytes of n randbytes(16) calls.
    true_seeds = _random_bytes(rng, (rows, slots, SEED_LEN))

    # Correction words: all but the last are random; the last is pinned so
    # the full XOR over the special row's expansions and all words leaves
    # beta at the special column and zero elsewhere; until then it holds
    # that target row. Each random word keeps its own draw: joined, word
    # lengths not a multiple of 4 would draw different bytes.
    words = np.zeros((slots, word_len), dtype=np.uint8)
    for l in range(slots - 1):
        words[l] = _random_bytes(rng, (word_len,))
    start = special_col * params.output_len
    words[-1, start : start + params.output_len] = np.frombuffer(beta, dtype=np.uint8)
    expansions = crypto.keystream_many(true_seeds[special_row], word_len)
    words[-1] = np.bitwise_xor.reduce(np.vstack([expansions, words]))

    patterns = _even_odd_patterns(parties)
    masks = [
        _sample_selection_matrix(rng, patterns, parties, slots, i == special_row)
        for i in range(rows)
    ]
    packed = b"".join(
        masks[i][t].to_bytes(params.mask_bytes, "little") for t in range(parties) for i in range(rows)
    )
    selection = _unpack_selection(
        np.frombuffer(packed, dtype=np.uint8).reshape(parties, rows, params.mask_bytes), slots
    )

    # Unselected slots get per-party filler, drawn party, then row, then slot.
    seeds = np.broadcast_to(true_seeds, (parties, rows, slots, SEED_LEN)).copy()
    seeds[~selection] = _random_bytes(rng, (int(np.count_nonzero(~selection)), SEED_LEN))
    return [DpfKey(t, params, seeds[t], words.copy(), selection[t]) for t in range(parties)]


def _fold_rows(key: DpfKey, r0: int, out: np.ndarray) -> None:
    """XOR the evaluations of rows r0, r0 + 1, ... into ``out`` (rows, word_len).

    A row's evaluation is the XOR of its selected seed expansions and
    correction words. Per chunk of rows (sized to stay cache-resident) and
    seed slot, one keystream_many call expands the rows selecting that slot;
    a row appears at most once per slot, so the fancy-indexed XOR drops nothing.
    """
    p = key.params
    selection, seeds = key.selection[r0 : r0 + len(out)], key.row_seeds[r0 : r0 + len(out)]
    if not selection.any(axis=1).all():  # checked before anything is written
        raise ValueError("key has a row with no selected seeds")  # dpf_gen never emits one
    step = max(1, _EVAL_CHUNK_BYTES // p.word_len)
    for c0 in range(0, len(out), step):
        for l in range(p.seeds_per_row):
            rows = c0 + np.flatnonzero(selection[c0 : c0 + step, l])
            ks = crypto.keystream_many(seeds[rows, l], p.word_len)
            ks ^= key.correction_words[l]
            out[rows] ^= ks


def dpf_eval(key: DpfKey, x: int) -> bytes:
    """This party's share of f(x)."""
    p = key.params
    if not 0 <= x < p.domain_size:
        raise ValueError(f"x {x} outside domain of size {p.domain_size}")
    row, col = divmod(x, p.grid_cols)
    expanded = np.zeros((1, p.word_len), dtype=np.uint8)
    _fold_rows(key, row, expanded)
    return expanded[0, col * p.output_len : (col + 1) * p.output_len].tobytes()


@dataclass
class ShareDatabase:
    """2^n slots of output_len bytes, combinable slotwise by XOR."""

    slots: np.ndarray  # uint8, shape (2^n, output_len)

    @classmethod
    def zeros(cls, params: DpfParams) -> "ShareDatabase":
        return cls(np.zeros((params.domain_size, params.output_len), dtype=np.uint8))

    @classmethod
    def from_bytes(cls, blob: bytes, params: DpfParams) -> "ShareDatabase":
        expected = params.domain_size * params.output_len
        if len(blob) != expected:
            raise ValueError(f"database must be {expected} bytes, got {len(blob)}")
        arr = np.frombuffer(blob, dtype=np.uint8).reshape(
            params.domain_size, params.output_len
        )
        return cls(arr.copy())

    def copy(self) -> "ShareDatabase":
        return ShareDatabase(self.slots.copy())

    def xor_update(self, other: "ShareDatabase") -> None:
        if self.slots.shape != other.slots.shape:
            raise ValueError("database dimensions differ")
        np.bitwise_xor(self.slots, other.slots, out=self.slots)

    def slot(self, index: int) -> bytes:
        return self.slots[index].tobytes()

    def decoded(self) -> dict[int, bytes | None]:
        """Every non-empty slot's payload, or None where decode_slot finds it garbled."""
        rows = np.flatnonzero(self.slots.any(axis=1))
        return {int(i): decode_slot(self.slots[i].tobytes())[1] for i in rows}

    def to_bytes(self) -> bytes:
        return self.slots.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShareDatabase):
            return NotImplemented
        return self.slots.shape == other.slots.shape and bool(
            np.array_equal(self.slots, other.slots)
        )


def eval_full(key: DpfKey, into: ShareDatabase | None = None) -> ShareDatabase:
    """XOR every index's evaluation into ``into`` (a fresh zero database if None) and return it."""
    p = key.params
    db = ShareDatabase.zeros(p) if into is None else into
    if db.slots.shape != (p.domain_size, p.output_len):
        raise ValueError("database dimensions do not match the key's parameters")
    if not (db.slots.flags.writeable and db.slots.flags.c_contiguous):  # else reshape copies
        raise ValueError("database must be writeable and C-contiguous")
    _fold_rows(key, 0, db.slots.reshape(p.grid_rows, p.word_len))
    return db


@dataclass
class Epoch:
    """One server's accumulation window for a single epoch id."""

    epoch_id: int
    params: DpfParams
    client_ids: list[str] = field(default_factory=list)
    delta_share: ShareDatabase = None  # type: ignore[assignment]
    state: str = "open"
    remote_deltas: list[ShareDatabase] = field(default_factory=list)
    output: bytes | None = None

    def __post_init__(self) -> None:
        if self.delta_share is None:
            self.delta_share = ShareDatabase.zeros(self.params)


def server_accumulate(epoch: Epoch, key: DpfKey) -> None:
    """Fold one key's full evaluation into the epoch's delta share."""
    if epoch.state != "open":
        raise SealedEpochError(f"epoch {epoch.epoch_id} is {epoch.state}")
    if key.params != epoch.params:
        raise ValueError("key parameters do not match the epoch")
    eval_full(key, epoch.delta_share)


def encode_slot(message: bytes, output_len: int) -> bytes:
    """Length-prefixed, complement-checked, zero-padded slot payload."""
    capacity = output_len - SLOT_HEADER_LEN
    if capacity < 0:
        raise ValueError(f"output_len {output_len} below header size")
    if len(message) > capacity:
        raise ValueError(f"message of {len(message)} bytes exceeds capacity {capacity}")
    n = len(message)
    header = n.to_bytes(2, "little") + (n ^ 0xFFFF).to_bytes(2, "little")
    return (header + message).ljust(output_len, b"\x00")


def decode_slot(slot: bytes) -> tuple[str, bytes | None]:
    """Classify a combined slot: ('empty'|'message'|'garbled', payload)."""
    if slot.count(0) == len(slot):
        return "empty", None
    n = int.from_bytes(slot[0:2], "little")
    comp = int.from_bytes(slot[2:4], "little")
    if comp != (n ^ 0xFFFF) or n > len(slot) - SLOT_HEADER_LEN:
        return "garbled", None
    if slot.count(0, SLOT_HEADER_LEN + n) != len(slot) - SLOT_HEADER_LEN - n:
        return "garbled", None
    return "message", slot[SLOT_HEADER_LEN : SLOT_HEADER_LEN + n]


def client_check_in(
    message: bytes, params: DpfParams, rng: Random | int | None = None
) -> tuple[int, list[DpfKey]]:
    """Write a message at a uniformly random index: returns (index, keys)."""
    rng = _resolve_rng(rng)
    beta = encode_slot(message, params.output_len)
    index = rng.randrange(params.domain_size)
    return index, dpf_gen(index, beta, params, rng)


def membership_digest(client_ids: list[str]) -> bytes:
    h = hashlib.sha256()
    for cid in sorted(client_ids):
        h.update(cid.encode())
        h.update(b"\x00")
    return h.digest()


class EpochServer:
    """Simulated server endpoint: SUBMIT / SEAL / EXCHANGE / OUTPUT.

    Before sealing, every cooperating server must have received the same
    client set; EXCHANGE carries a membership digest and any mismatch
    invalidates the epoch rather than producing a skewed database.
    close_epoch runs SEAL, EXCHANGE and OUTPUT over a set of servers.
    """

    def __init__(self, server_id: int, params: DpfParams, peer_count: int):
        if not 0 <= server_id < params.party_count:
            raise ValueError("server_id outside party range")
        # peer_count repeats params.party_count; any other value miscounts the remote deltas.
        if peer_count != params.party_count:
            raise ValueError(f"peer_count {peer_count} != party_count {params.party_count}")
        self.server_id = server_id
        self.params = params
        self._epochs: dict[int, Epoch] = {}

    def _epoch(self, epoch_id: int) -> Epoch:
        if epoch_id not in self._epochs:
            self._epochs[epoch_id] = Epoch(epoch_id=epoch_id, params=self.params)
        return self._epochs[epoch_id]

    def submit(self, epoch_id: int, key: DpfKey, client_id: str) -> bool:
        if key.party_index != self.server_id:
            raise ValueError(
                f"key for party {key.party_index} sent to server {self.server_id}"
            )
        epoch = self._epoch(epoch_id)
        # A replayed key would XOR the client's first write back out.
        if client_id in epoch.client_ids:
            raise ValueError(f"epoch {epoch_id}: client {client_id!r} already submitted")
        server_accumulate(epoch, key)
        epoch.client_ids.append(client_id)
        return True

    def seal(self, epoch_id: int) -> None:
        epoch = self._epoch(epoch_id)
        if epoch.state != "open":
            raise SealedEpochError(f"epoch {epoch_id} is {epoch.state}")
        epoch.state = "sealed"

    def delta_bytes(self, epoch_id: int) -> bytes:
        epoch = self._epoch(epoch_id)
        if epoch.state == "open":
            raise SealedEpochError("seal the epoch before exchanging deltas")
        return epoch.delta_share.to_bytes()

    def membership(self, epoch_id: int) -> bytes:
        return membership_digest(self._epoch(epoch_id).client_ids)

    def exchange(self, epoch_id: int, delta: bytes, membership: bytes) -> None:
        epoch = self._epoch(epoch_id)
        if epoch.state == "open":
            raise SealedEpochError("seal the epoch before exchanging deltas")
        if membership != self.membership(epoch_id):
            raise EpochInvalid(
                f"epoch {epoch_id}: client sets differ across servers"
            )
        if len(epoch.remote_deltas) >= self.params.party_count - 1:
            raise EpochInvalid(f"epoch {epoch_id}: all remote deltas already received")
        epoch.remote_deltas.append(ShareDatabase.from_bytes(delta, self.params))

    def output(self, epoch_id: int) -> bytes:
        """The XOR of the local delta and every remote delta; identical on all servers."""
        epoch = self._epoch(epoch_id)
        if epoch.output is None:
            if epoch.state == "open":
                raise SealedEpochError(f"epoch {epoch_id} must be sealed before output")
            have, need = len(epoch.remote_deltas), self.params.party_count - 1
            if have != need:
                raise EpochInvalid(f"epoch {epoch_id}: have {have} of {need} remote deltas")
            combined = epoch.delta_share.copy()
            for delta in epoch.remote_deltas:
                combined.xor_update(delta)
            epoch.output = combined.to_bytes()
        return epoch.output


def close_epoch(servers: list[EpochServer], epoch_id: int) -> list[bytes]:
    """Seal every server, exchange every ordered pair's delta and digest, return each output."""
    for server in servers:
        server.seal(epoch_id)
    shares = [(server.delta_bytes(epoch_id), server.membership(epoch_id)) for server in servers]
    for i, server in enumerate(servers):
        for j, (delta, membership) in enumerate(shares):
            if i != j:
                server.exchange(epoch_id, delta, membership)
    return [server.output(epoch_id) for server in servers]
