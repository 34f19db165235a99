"""Patricia trie over fixed-length bit signatures (paper Sec. III-B).

This is the index structure of PTSJ.  A Patricia trie stores binary strings
with all single-branch runs collapsed into their parent node, so every
internal node is a genuine two-way branch and the trie over ``k`` distinct
signatures has at most ``2k - 1`` nodes regardless of signature length.

Node layout (the paper's "slight modification" of Morrison's Patricia trie):
every node stores the *segment* of logical bit positions ``[start, stop)``
it covers, together with the bit content of that segment (``prefix``).  A
child's segment begins at its parent's ``stop`` and its first prefix bit is
its branch bit: the left child starts with 0, the right child with 1.  A
node with ``stop == bits`` is a leaf and carries the full signature plus a
caller-managed payload list.

For probe speed each node caches ``shift = bits - stop`` and
``mask = 2**(stop - start) - 1``: the query's segment aligned to a node is
then the single expression ``(query >> shift) & mask``, the per-node cost
the paper's Sec. III-C2 counts in integer comparisons.

Four queries, all queue-driven per the paper's pseudo code:

* :meth:`PatriciaTrie.subset_leaves` — Algorithm 5 (PATRICIAENUM): leaves
  whose signature is ``⊑`` the query.  Drives single-record probes;
  :meth:`PatriciaTrie.subset_leaves_batch` answers a whole block of
  queries in one walk and drives the containment join.
* :meth:`PatriciaTrie.superset_leaves` — the Algorithm 6 branch switch:
  leaves whose signature covers the query.  Drives the superset join.
* :meth:`PatriciaTrie.equal_leaf` — exact lookup.  Drives set-equality join.
* :meth:`PatriciaTrie.hamming_leaves` — Algorithm 7 adapted to Patricia
  nodes: leaves within a Hamming-distance threshold.  Drives the
  set-similarity join (Sec. III-E3).

Each query updates :attr:`PatriciaTrie.visits_last_query` with the number of
nodes taken off the work queue, the paper's ``V`` (Sec. III-C2), so
benchmarks can report node-visit counts alongside wall time.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from repro.errors import TrieError
from repro.signatures.bitmap import validate_signature

__all__ = ["SUBSET_BATCH_BLOCK", "PatriciaNode", "PatriciaTrie"]

#: Queries per set-at-a-time walk in :meth:`PatriciaTrie.subset_leaves_batch`.
#: The block's column bitsets take ``bits * SUBSET_BATCH_BLOCK / 8`` bytes.
#: Larger blocks amortise the walk over more queries but make every
#: column ``&`` wider.  Measured on the Fig. 8 surrogates (2-vCPU x86-64,
#: CPython 3.11): 3000 twitter probes take 764 / 288 / 163 / 137 / 160 ms
#: at blocks of 128 / 512 / 1024 / 2048 / 4096, 3000 flickr probes bottom
#: out at 1024, and 500-probe batches stop improving from 512 on.
SUBSET_BATCH_BLOCK = 1024


class PatriciaNode:
    """One Patricia-trie node covering logical bit positions ``[start, stop)``.

    Attributes:
        start: First logical bit position of the segment (inclusive).
        stop: One past the last position.  ``stop == bits`` marks a leaf.
        prefix: The segment's bit content as an int, MSB-first within the
            segment (width ``stop - start``).
        shift: Cached ``bits - stop`` (aligns a query to this segment).
        mask: Cached ``2**(stop - start) - 1``.
        left: Child whose first prefix bit is 0 (internal nodes only).
        right: Child whose first prefix bit is 1 (internal nodes only).
        signature: The full signature (leaves only, else ``None``).
        items: Caller-managed payload list (leaves only, else ``None``).
    """

    __slots__ = ("start", "stop", "prefix", "shift", "mask", "left", "right",
                 "signature", "items")

    def __init__(self, start: int, stop: int, prefix: int, bits: int) -> None:
        self.start = start
        self.stop = stop
        self.prefix = prefix
        self.shift = bits - stop
        self.mask = (1 << (stop - start)) - 1
        self.left: PatriciaNode | None = None
        self.right: PatriciaNode | None = None
        self.signature: int | None = None
        self.items: list[Any] | None = None

    @property
    def is_leaf(self) -> bool:
        """True iff this node ends at the signature width."""
        return self.items is not None

    @property
    def width(self) -> int:
        """Number of bit positions this node's segment covers."""
        return self.stop - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_leaf else "node"
        return f"<{kind} [{self.start},{self.stop}) prefix={self.prefix:b}>"


def _diverge_offset(a: int, b: int, width: int) -> int:
    """First position (0-based from segment MSB) where ``a`` and ``b`` differ.

    Returns ``width`` when the segments are identical.
    """
    x = a ^ b
    if x == 0:
        return width
    return width - x.bit_length()


class PatriciaTrie:
    """A Patricia trie over signatures of a fixed width ``bits``.

    The trie owns no payload semantics: :meth:`insert` returns the leaf's
    ``items`` list and the caller appends whatever it needs (PTSJ appends
    merged ``(set, ids)`` groups, tests append plain ints).

    Args:
        bits: Signature width; every inserted/queried signature must fit.

    Raises:
        TrieError: If ``bits`` is not positive.
    """

    def __init__(self, bits: int) -> None:
        if bits <= 0:
            raise TrieError(f"signature width must be positive, got {bits}")
        self.bits = bits
        self.root: PatriciaNode | None = None
        self.leaf_count = 0
        self.visits_last_query = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sorted(
        cls, bits: int, signatures: Sequence[int], payloads: Sequence[list[Any]]
    ) -> "PatriciaTrie":
        """Build the trie of ascending distinct ``signatures`` in one pass.

        ``payloads[i]`` becomes the ``items`` list of ``signatures[i]``'s
        leaf (the very list object, so a later :meth:`insert` of that
        signature returns it).  A Patricia trie is canonical — its shape
        depends only on the set of keys — so the result is node for node
        the trie that :meth:`insert` calls in any order would build.

        Adjacent keys first differ at logical position
        ``bits - (prev ^ sig).bit_length()``, the ``stop`` of the branch
        node between their leaves.  The branch nodes form a Cartesian
        tree over those positions, built left to right with a stack of
        the open right-hand nodes: a new branch adopts every deeper one
        as its left subtree and takes the new leaf as its right child.
        Segment starts depend on the final parents, so a top-down pass
        then sets each node's ``start``, ``prefix`` and ``mask``; until
        then ``prefix`` holds the full signature of a leaf below.

        Raises:
            TrieError: If ``bits`` is not positive, the signatures are not
                strictly ascending, or ``len(payloads)`` differs.
            repro.errors.SignatureError: If a signature does not fit.
        """
        trie = cls(bits)
        if len(payloads) != len(signatures):
            raise TrieError(f"{len(signatures)} signatures but {len(payloads)} payloads")
        if not signatures:
            return trie
        validate_signature(signatures[0], bits)
        validate_signature(signatures[-1], bits)
        node_type = PatriciaNode
        spine: list[PatriciaNode] = []
        prev = signatures[0]
        leaf = root = node_type(0, bits, prev, bits)
        leaf.signature = prev
        leaf.items = payloads[0]
        for i in range(1, len(signatures)):
            sig = signatures[i]
            if sig <= prev:
                raise TrieError("signatures must be strictly ascending")
            stop = bits - (prev ^ sig).bit_length()
            left: PatriciaNode = leaf
            while spine and spine[-1].stop > stop:
                left = spine.pop()
            leaf = node_type(0, bits, sig, bits)
            leaf.signature = sig
            leaf.items = payloads[i]
            branch = node_type(0, stop, sig, bits)
            branch.left = left
            branch.right = leaf
            if spine:
                spine[-1].right = branch
            else:
                root = branch
            spine.append(branch)
            prev = sig
        stack = [root]
        while stack:
            node = stack.pop()
            node.mask = mask = (1 << (node.stop - node.start)) - 1
            node.prefix = (node.prefix >> node.shift) & mask
            if node.items is None:
                node.left.start = node.right.start = node.stop  # type: ignore[union-attr]
                stack.append(node.left)   # type: ignore[arg-type]
                stack.append(node.right)  # type: ignore[arg-type]
        trie.root = root
        trie.leaf_count = len(signatures)
        return trie

    def insert(self, signature: int) -> list[Any]:
        """Insert ``signature`` and return the leaf payload list.

        Repeated inserts of the same signature return the *same* list, which
        is how PTSJ groups tuples sharing a signature (and, one level deeper,
        merges identical sets — Sec. III-E1).

        Raises:
            repro.errors.SignatureError: If the signature does not fit.
        """
        validate_signature(signature, self.bits)
        if self.root is None:
            self.root = self._new_leaf(0, signature)
            return self.root.items  # type: ignore[return-value]

        bits = self.bits
        node = self.root
        parent: PatriciaNode | None = None
        went_right = False
        while True:
            seg = (signature >> node.shift) & node.mask
            offset = _diverge_offset(seg, node.prefix, node.stop - node.start)
            if offset < node.stop - node.start:
                split, leaf = self._split(node, offset, signature)
                self._replace_child(parent, went_right, split)
                return leaf.items  # type: ignore[return-value]
            if node.items is not None:
                return node.items
            parent = node
            went_right = bool((signature >> (bits - 1 - node.stop)) & 1)
            node = node.right if went_right else node.left  # type: ignore[assignment]
            assert node is not None

    def _new_leaf(self, start: int, signature: int) -> PatriciaNode:
        bits = self.bits
        prefix = signature & ((1 << (bits - start)) - 1)
        leaf = PatriciaNode(start, bits, prefix, bits)
        leaf.signature = signature
        leaf.items = []
        self.leaf_count += 1
        return leaf

    def _split(
        self, node: PatriciaNode, offset: int, signature: int
    ) -> tuple[PatriciaNode, PatriciaNode]:
        """Split ``node`` at ``offset`` bits into its segment; attach a new leaf.

        Returns ``(common, leaf)``: the new internal node that replaces
        ``node`` in the tree and the freshly created leaf for ``signature``.
        """
        bits = self.bits
        width = node.stop - node.start
        split_pos = node.start + offset
        common = PatriciaNode(node.start, split_pos, node.prefix >> (width - offset), bits)
        # Shrink the existing node to the lower part of its segment.
        node.prefix &= (1 << (width - offset)) - 1
        node.start = split_pos
        node.mask = (1 << (node.stop - split_pos)) - 1
        new_leaf = self._new_leaf(split_pos, signature)
        if (signature >> (bits - 1 - split_pos)) & 1:
            common.left, common.right = node, new_leaf
        else:
            common.left, common.right = new_leaf, node
        return common, new_leaf

    def _replace_child(self, parent: PatriciaNode | None, went_right: bool, child: PatriciaNode) -> None:
        if parent is None:
            self.root = child
        elif went_right:
            parent.right = child
        else:
            parent.left = child

    def remove(self, signature: int) -> list[Any] | None:
        """Remove ``signature``'s leaf; return its payload list, or ``None``.

        Deletion is the inverse of the insert-time split: the leaf's parent
        (a two-way branch) disappears and the sibling absorbs the parent's
        segment, so the structural invariants — every internal node is a
        genuine branch — are preserved.  Index-maintenance support the
        original paper leaves implicit but a reusable OLAP index
        (Sec. III-E3) needs.

        Raises:
            repro.errors.SignatureError: If the signature does not fit.
        """
        validate_signature(signature, self.bits)
        # Walk down, remembering parent and grandparent.
        node = self.root
        parent: PatriciaNode | None = None
        grand: PatriciaNode | None = None
        parent_right = False
        grand_right = False
        while node is not None:
            if ((signature >> node.shift) & node.mask) != node.prefix:
                return None
            if node.items is not None:
                break
            grand, grand_right = parent, parent_right
            parent = node
            parent_right = bool((signature >> (self.bits - 1 - node.stop)) & 1)
            node = node.right if parent_right else node.left
        if node is None or node.items is None:
            return None

        self.leaf_count -= 1
        if parent is None:
            # The leaf was the root: the trie becomes empty.
            self.root = None
            return node.items
        sibling = parent.left if parent_right else parent.right
        assert sibling is not None
        # The sibling absorbs the parent's segment (and its position).
        sibling.prefix |= parent.prefix << (sibling.stop - sibling.start)
        sibling.start = parent.start
        sibling.mask = (1 << (sibling.stop - sibling.start)) - 1
        self._replace_child(grand, grand_right, sibling)
        return node.items

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def subset_leaves(self, signature: int) -> list[PatriciaNode]:
        """Algorithm 5 (PATRICIAENUM): leaves whose signature is ``⊑ signature``.

        Every stored signature whose 1-bits all appear in ``signature`` is
        returned; the caller then verifies actual set containment (signature
        containment is a necessary, not sufficient, condition).  The work
        list is LIFO rather than the paper's FIFO — enumeration order does
        not affect the result set and a list is faster in CPython.
        """
        validate_signature(signature, self.bits)
        result: list[PatriciaNode] = []
        visits = 0
        if self.root is not None:
            bits_minus_1 = self.bits - 1
            stack: list[PatriciaNode] = [self.root]
            push = stack.append
            pop = stack.pop
            while stack:
                node = pop()
                visits += 1
                if node.prefix & ~((signature >> node.shift) & node.mask):
                    continue
                if node.items is not None:
                    result.append(node)
                elif (signature >> (bits_minus_1 - node.stop)) & 1:
                    push(node.left)   # type: ignore[arg-type]
                    push(node.right)  # type: ignore[arg-type]
                else:
                    push(node.left)   # type: ignore[arg-type]
        self.visits_last_query = visits
        return result

    def subset_leaves_batch(
        self,
        signatures: Sequence[int],
        transpose: Callable[[Sequence[int], int], list[int]],
        tick: Callable[[], None] | None = None,
    ) -> tuple[list[list[PatriciaNode]], int]:
        """Set-at-a-time Algorithm 5: :meth:`subset_leaves` for every query.

        Queries are processed in blocks of :data:`SUBSET_BATCH_BLOCK`.
        ``transpose`` (a kernel's ``transpose_signatures``) turns a block
        into one *column* bitset per logical bit position: bit ``p`` of
        ``columns[j]`` is set when query ``p`` has position ``j``.  The
        trie is then walked once per block, each stack entry carrying the
        bitset of queries still alive at that node: a node's 1-bits AND
        their columns into it, an internal node hands it unchanged to the
        left child and ANDed with its branch-bit column to the right one,
        and a leaf is appended to every surviving query's list.  Where
        fewer queries are alive than the node's prefix has 1-bits (deep
        nodes, small batches), each live query's own segment is tested
        instead, as :meth:`subset_leaves` does; both filters keep the
        same queries.

        Returns ``(leaves, visits)``: per query (in input order), the
        leaves :meth:`subset_leaves` would return, in the same order; and
        the sum of the node visits those per-query walks would count (a
        node reached by ``k`` queries counts ``k``), which is also stored
        in :attr:`visits_last_query`.  ``tick`` is called once per node
        popped, so a governed caller can stop a long walk.

        Raises:
            repro.errors.SignatureError: If a signature does not fit.
        """
        bits = self.bits
        for sig in signatures:
            validate_signature(sig, bits)
        result: list[list[PatriciaNode]] = [[] for _ in signatures]
        visits = 0
        root = self.root
        if root is not None:
            for base in range(0, len(signatures), SUBSET_BATCH_BLOCK):
                block = signatures[base:base + SUBSET_BATCH_BLOCK]
                columns = transpose(block, bits)
                hits = result[base:base + len(block)]
                stack: list[tuple[PatriciaNode, int]] = [(root, (1 << len(block)) - 1)]
                push = stack.append
                pop = stack.pop
                while stack:
                    node, active = pop()
                    if tick is not None:
                        tick()
                    alive = active.bit_count()
                    visits += alive
                    stop = node.stop
                    prefix = node.prefix
                    if alive < prefix.bit_count():
                        # Fewer live queries than prefix 1-bits: one
                        # segment test per query is the cheaper filter
                        # (prefix is segment-wide, so no mask is needed).
                        shift = node.shift
                        pending = active
                        while pending:
                            low = pending & -pending
                            pending ^= low
                            if prefix & ~(block[low.bit_length() - 1] >> shift):
                                active ^= low
                    else:
                        while prefix and active:
                            low = prefix & -prefix
                            active &= columns[stop - low.bit_length()]
                            prefix ^= low
                    if not active:
                        continue
                    if node.items is not None:
                        while active:
                            low = active & -active
                            hits[low.bit_length() - 1].append(node)
                            active ^= low
                    else:
                        # Same LIFO order as subset_leaves: right popped first.
                        push((node.left, active))  # type: ignore[arg-type]
                        right = active & columns[stop]
                        if right:
                            push((node.right, right))  # type: ignore[arg-type]
        self.visits_last_query = visits
        return result, visits

    def superset_leaves(self, signature: int) -> list[PatriciaNode]:
        """Algorithm 6 variant: leaves whose signature covers ``signature``.

        The containment test and the branch rule are mirrored: a stored
        signature must have 1 wherever the query does, so a query bit of 1
        forces the right branch while a 0 allows both.
        """
        validate_signature(signature, self.bits)
        result: list[PatriciaNode] = []
        visits = 0
        if self.root is not None:
            bits_minus_1 = self.bits - 1
            stack: list[PatriciaNode] = [self.root]
            while stack:
                node = stack.pop()
                visits += 1
                if ((signature >> node.shift) & node.mask) & ~node.prefix:
                    continue
                if node.items is not None:
                    result.append(node)
                elif (signature >> (bits_minus_1 - node.stop)) & 1:
                    stack.append(node.right)  # type: ignore[arg-type]
                else:
                    stack.append(node.left)   # type: ignore[arg-type]
                    stack.append(node.right)  # type: ignore[arg-type]
        self.visits_last_query = visits
        return result

    def equal_leaf(self, signature: int) -> PatriciaNode | None:
        """Exact-signature lookup (set-equality join, Sec. III-E2)."""
        validate_signature(signature, self.bits)
        node = self.root
        visits = 0
        bits_minus_1 = self.bits - 1
        while node is not None:
            visits += 1
            if ((signature >> node.shift) & node.mask) != node.prefix:
                self.visits_last_query = visits
                return None
            if node.items is not None:
                self.visits_last_query = visits
                return node
            node = node.right if (signature >> (bits_minus_1 - node.stop)) & 1 else node.left
        self.visits_last_query = visits
        return None

    def hamming_leaves(self, signature: int, threshold: int) -> list[tuple[PatriciaNode, int]]:
        """Algorithm 7 on Patricia nodes: leaves within Hamming ``threshold``.

        Returns ``(leaf, distance)`` pairs.  The accumulated distance of a
        node is the Hamming distance between the query's bits and the node's
        prefix over all segments on the root path; branches whose partial
        distance already exceeds ``threshold`` are pruned, which is the
        Patricia analogue of the per-bit counter in the paper's Algorithm 7.

        Raises:
            TrieError: If ``threshold`` is negative.
        """
        validate_signature(signature, self.bits)
        if threshold < 0:
            raise TrieError(f"hamming threshold must be non-negative, got {threshold}")
        result: list[tuple[PatriciaNode, int]] = []
        visits = 0
        if self.root is not None:
            stack: list[tuple[PatriciaNode, int]] = [(self.root, 0)]
            while stack:
                node, dist = stack.pop()
                visits += 1
                qseg = (signature >> node.shift) & node.mask
                dist += (qseg ^ node.prefix).bit_count()
                if dist > threshold:
                    continue
                if node.items is not None:
                    result.append((node, dist))
                else:
                    stack.append((node.left, dist))   # type: ignore[arg-type]
                    stack.append((node.right, dist))  # type: ignore[arg-type]
        self.visits_last_query = visits
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of distinct signatures stored."""
        return self.leaf_count

    def leaves(self) -> Iterator[PatriciaNode]:
        """Iterate all leaves (depth-first, left before right)."""
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.append(node.right)  # type: ignore[arg-type]
                stack.append(node.left)   # type: ignore[arg-type]

    def node_count(self) -> int:
        """Total nodes — at most ``2 * leaf_count - 1`` (Sec. III-C1)."""
        if self.root is None:
            return 0
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.append(node.left)   # type: ignore[arg-type]
                stack.append(node.right)  # type: ignore[arg-type]
        return count

    def height(self) -> int:
        """Maximum number of nodes on a root-to-leaf path."""
        if self.root is None:
            return 0
        best = 0
        stack = [(self.root, 1)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf:
                best = max(best, depth)
            else:
                stack.append((node.left, depth + 1))   # type: ignore[arg-type]
                stack.append((node.right, depth + 1))  # type: ignore[arg-type]
        return best

    def check_invariants(self) -> None:
        """Validate structural invariants (used by property tests).

        * Segments tile ``[0, bits)`` along every root path.
        * Every internal node has both children (Patricia compression).
        * Branch bits match child sides (left starts 0, right starts 1).
        * Cached ``shift``/``mask`` agree with the segment bounds.
        * Leaf ``signature`` equals the concatenation of prefixes on its path.

        Raises:
            TrieError: On the first violated invariant.
        """
        if self.root is None:
            return
        stack: list[tuple[PatriciaNode, int, int]] = [(self.root, 0, 0)]
        while stack:
            node, start, acc = stack.pop()
            if node.start != start:
                raise TrieError(f"segment start {node.start} != expected {start}")
            if node.prefix >> node.width:
                raise TrieError("prefix wider than segment")
            if node.shift != self.bits - node.stop:
                raise TrieError("cached shift out of date")
            if node.mask != (1 << node.width) - 1:
                raise TrieError("cached mask out of date")
            acc = (acc << node.width) | node.prefix
            if node.is_leaf:
                if node.stop != self.bits:
                    raise TrieError("leaf does not extend to signature width")
                if node.signature != acc:
                    raise TrieError(
                        f"leaf signature 0x{node.signature:x} != path bits 0x{acc:x}"
                    )
            else:
                if node.left is None or node.right is None:
                    raise TrieError("internal node with a missing child (single branch)")
                if node.stop >= self.bits:
                    raise TrieError("internal node extends to signature width")
                left_bit = node.left.prefix >> (node.left.width - 1)
                right_bit = node.right.prefix >> (node.right.width - 1)
                if left_bit != 0 or right_bit != 1:
                    raise TrieError("child branch bits do not match sides")
                stack.append((node.left, node.stop, acc))
                stack.append((node.right, node.stop, acc))
