"""Element-space Patricia trie for PRETTI+ (paper Sec. IV, Alg. 8, Fig. 4).

PRETTI+ replaces PRETTI's one-element-per-node prefix tree with a Patricia
trie whose nodes hold *runs* of elements (variable-length prefixes), which
removes single-child chains and is the source of PRETTI+'s much smaller
memory footprint (paper Fig. 6a).

Unlike the signature-space :class:`repro.tries.patricia.PatriciaTrie`, the
stored strings here are the tuples' sorted element sequences, which have
*different lengths* — so a set can end in the middle of the trie and every
node (not only leaves) may carry tuples.  Insertion is the paper's
Algorithm 8 with its four cases: append to the current node, descend into a
child, split the node (new parent carrying the common run), or split with a
new sibling.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Sequence

from repro.errors import TrieError

__all__ = ["SetPatriciaNode", "SetPatriciaTrie"]


def _common_prefix_len(a: tuple[int, ...], b: Sequence[int], b_from: int) -> int:
    """Length of the common prefix of ``a`` and ``b[b_from:]``."""
    limit = min(len(a), len(b) - b_from)
    i = 0
    while i < limit and a[i] == b[b_from + i]:
        i += 1
    return i


class SetPatriciaNode:
    """One PRETTI+ node: a run of elements, resident tuples, children.

    Attributes:
        prefix: The run of elements on the edge into this node (ascending;
            empty only at the root).
        tuples: Ids of S-tuples whose sorted set ends exactly at this node.
        children: ``{first_element_of_child_prefix: child}`` hash map.
    """

    __slots__ = ("prefix", "tuples", "children")

    def __init__(self, prefix: tuple[int, ...]) -> None:
        self.prefix = prefix
        self.tuples: list[int] = []
        self.children: dict[int, SetPatriciaNode] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SetPatriciaNode prefix={self.prefix} tuples={len(self.tuples)}>"


class SetPatriciaTrie:
    """Patricia trie over sorted element sequences (PRETTI+'s index on ``S``)."""

    def __init__(self) -> None:
        self.root = SetPatriciaNode(())
        self.size = 0

    @classmethod
    def from_groups(
        cls, groups: Iterable[tuple[AbstractSet[int], list[int]]]
    ) -> tuple["SetPatriciaTrie", int]:
        """Build the trie of distinct sets in one pass; return it and its node count.

        Each ``(elements, ids)`` group is sorted once and inserted once,
        and ``ids`` becomes the ``tuples`` list of the node where the set
        ends (the very list object).  Algorithm 8's four cases are inlined
        as :meth:`insert` has them, except that the descent matches each
        child's prefix run against the set directly.

        Given the groups in first-occurrence order, the result is node for
        node the trie that :meth:`insert` calls, one per tuple in input
        order, would build, down to the order of every ``children`` dict
        and ``tuples`` list: a repeated set only appends its id to the
        node where its first occurrence ended (case 1), so inserting each
        distinct set once, at its first occurrence, makes the same nodes.

        Raises:
            TrieError: If two groups hold the same set.
        """
        trie = cls()
        root = trie.root
        node_type = SetPatriciaNode
        nodes = 1
        size = 0
        for elements, ids in groups:
            size += len(ids)
            key = tuple(sorted(elements))
            total = len(key)
            node = root
            consumed = 0
            while consumed < total:
                first = key[consumed]
                child = node.children.get(first)
                if child is None:
                    # Case (2), new leaf: the rest of the set is its run.
                    leaf = node_type(key[consumed:])
                    node.children[first] = node = leaf
                    nodes += 1
                    break
                prefix = child.prefix
                plen = len(prefix)
                if key[consumed:consumed + plen] == prefix:
                    # Case (2), descend: the whole run matches.
                    consumed += plen
                    node = child
                    continue
                # The run and the set part ways after at least one common
                # element: split ``child`` so a new node takes the common run.
                limit = min(plen, total - consumed)
                common_len = 1
                while common_len < limit and prefix[common_len] == key[consumed + common_len]:
                    common_len += 1
                common = node_type(prefix[:common_len])
                child.prefix = prefix[common_len:]
                common.children[child.prefix[0]] = child
                node.children[first] = common
                nodes += 1
                consumed += common_len
                node = common
                if consumed < total:
                    # Case (4): the set continues past the split — new sibling.
                    node = node_type(key[consumed:])
                    common.children[key[consumed]] = node
                    nodes += 1
                # Otherwise case (3): the new common node is the set's end.
                break
            if node.tuples:
                raise TrieError(f"set {key} appears in two groups")
            node.tuples = ids
        trie.size = size
        return trie, nodes

    def insert(self, elements: Sequence[int], rid: int) -> None:
        """Insert tuple ``rid`` with its *ascending* element sequence.

        Implements the paper's Algorithm 8 (PRETTI+INSERT) iteratively.

        Raises:
            TrieError: If ``elements`` is not strictly ascending.
        """
        for i in range(1, len(elements)):
            if elements[i] <= elements[i - 1]:
                raise TrieError(
                    "elements must be strictly ascending, got "
                    f"{elements[i]} after {elements[i - 1]}"
                )

        node = self.root
        parent: SetPatriciaNode | None = None
        consumed = 0
        while True:
            clen = _common_prefix_len(node.prefix, elements, consumed)
            nlen = len(node.prefix)
            tlen = len(elements) - consumed
            if clen == nlen:
                if clen == tlen:
                    # Case (1): the set ends exactly at this node.
                    node.tuples.append(rid)
                    break
                # Case (2): descend into (or create) the child that matches
                # the next element of the set.
                nxt = elements[consumed + clen]
                child = node.children.get(nxt)
                if child is None:
                    leaf = SetPatriciaNode(tuple(elements[consumed + clen:]))
                    leaf.tuples.append(rid)
                    node.children[nxt] = leaf
                    break
                parent = node
                consumed += clen
                node = child
            else:
                # clen < nlen: split ``node`` — a new node takes the common
                # run and ``node`` keeps the remainder.
                assert parent is not None, "root has an empty prefix and never splits"
                common = SetPatriciaNode(node.prefix[:clen])
                node.prefix = node.prefix[clen:]
                common.children[node.prefix[0]] = node
                parent.children[common.prefix[0]] = common
                if clen == tlen:
                    # Case (3): the new common node *is* the set's end.
                    common.tuples.append(rid)
                else:
                    # Case (4): the set continues past the split — new sibling.
                    sibling = SetPatriciaNode(tuple(elements[consumed + clen:]))
                    sibling.tuples.append(rid)
                    common.children[sibling.prefix[0]] = sibling
                break
        self.size += 1

    def remove(self, elements: Sequence[int], rid: int) -> bool:
        """Remove tuple ``rid`` stored under the given element sequence.

        Returns ``True`` if the tuple was found and removed.  Emptied
        nodes are pruned and single-child chains re-merged, so the
        Patricia compression invariant survives arbitrary delete
        sequences (checked by the property tests).
        """
        path: list[SetPatriciaNode] = []
        node = self.root
        consumed = 0
        while True:
            clen = _common_prefix_len(node.prefix, elements, consumed)
            if clen < len(node.prefix):
                return False
            consumed += clen
            if consumed == len(elements):
                break
            child = node.children.get(elements[consumed])
            if child is None:
                return False
            path.append(node)
            node = child
        try:
            node.tuples.remove(rid)
        except ValueError:
            return False
        self.size -= 1

        # Restore compression bottom-up.
        while node is not self.root:
            if node.tuples or len(node.children) > 1:
                break
            parent = path[-1]
            if not node.children:
                del parent.children[node.prefix[0]]
                node = path.pop()
                continue
            # Exactly one child, no resident tuples: merge it upwards.
            only_child = next(iter(node.children.values()))
            only_child.prefix = node.prefix + only_child.prefix
            parent.children[only_child.prefix[0]] = only_child
            break
        return True

    def __len__(self) -> int:
        """Number of inserted tuples."""
        return self.size

    def node_count(self) -> int:
        """Total trie nodes including the root."""
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count

    def height(self) -> int:
        """Longest root-to-leaf path in *nodes* (excluding the root)."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            best = max(best, depth)
            for child in node.children.values():
                stack.append((child, depth + 1))
        return best

    # ------------------------------------------------------------------
    # Set-trie search operations (Patricia variants)
    # ------------------------------------------------------------------
    def subsets_of(self, query: frozenset[int]) -> list[int]:
        """Ids of stored sets that are subsets of ``query``.

        Same pruning as :meth:`repro.tries.set_trie.SetTrie.subsets_of`,
        except each node contributes a *run* of elements that must all be
        in the query.
        """
        result: list[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            result.extend(node.tuples)
            for first, child in node.children.items():
                if first in query and all(e in query for e in child.prefix):
                    stack.append(child)
        return result

    def supersets_of(self, query: frozenset[int]) -> list[int]:
        """Ids of stored sets that contain ``query``.

        The sorted query is consumed against each node's prefix run:
        run elements below the next needed element are optional extras,
        a match consumes it, and an element above it prunes the branch.
        """
        needed = sorted(query)
        total = len(needed)
        result: list[int] = []
        stack: list[tuple[SetPatriciaNode, int]] = [(self.root, 0)]
        while stack:
            node, i = stack.pop()
            # Consume this node's prefix against the query cursor.
            matched = True
            for element in node.prefix:
                if i < total:
                    target = needed[i]
                    if element == target:
                        i += 1
                    elif element > target:
                        matched = False
                        break
            if not matched:
                continue
            if i == total:
                collect = [node]
                while collect:
                    current = collect.pop()
                    result.extend(current.tuples)
                    collect.extend(current.children.values())
                continue
            target = needed[i]
            for first, child in node.children.items():
                if first <= target:
                    stack.append((child, i))
        return result

    def walk(self) -> Iterator[tuple[SetPatriciaNode, tuple[int, ...]]]:
        """Depth-first iteration of ``(node, full_path_elements)`` pairs."""
        stack: list[tuple[SetPatriciaNode, tuple[int, ...]]] = [(self.root, ())]
        while stack:
            node, path = stack.pop()
            yield node, path
            for child in node.children.values():
                stack.append((child, path + child.prefix))

    def stored_sets(self) -> Iterator[tuple[tuple[int, ...], list[int]]]:
        """Iterate ``(sorted_elements, tuple_ids)`` for every resident set."""
        for node, path in self.walk():
            if node.tuples:
                yield path, node.tuples

    def check_invariants(self) -> None:
        """Validate PRETTI+ structural invariants (used by property tests).

        * Children are keyed by the first element of their prefix.
        * Non-root prefixes are non-empty and strictly ascending.
        * Along every path, element values strictly ascend across node
          boundaries too.
        * No node other than the root has an empty prefix; the compression
          invariant: a childless node must hold tuples, and a node with
          exactly one child and no tuples would be mergeable (violation).

        Raises:
            TrieError: On the first violated invariant.
        """
        stack: list[tuple[SetPatriciaNode, int]] = [(self.root, -1)]
        while stack:
            node, last = stack.pop()
            if node is not self.root:
                if not node.prefix:
                    raise TrieError("non-root node with empty prefix")
                if node.prefix[0] <= last:
                    raise TrieError("path elements not strictly ascending at boundary")
                for i in range(1, len(node.prefix)):
                    if node.prefix[i] <= node.prefix[i - 1]:
                        raise TrieError("node prefix not strictly ascending")
                if not node.children and not node.tuples:
                    raise TrieError("childless node without tuples")
                if len(node.children) == 1 and not node.tuples:
                    raise TrieError("mergeable single-child node without tuples")
            for key, child in node.children.items():
                if not child.prefix or child.prefix[0] != key:
                    raise TrieError(f"child keyed {key} has prefix {child.prefix}")
                tail = node.prefix[-1] if node.prefix else last
                stack.append((child, tail))
