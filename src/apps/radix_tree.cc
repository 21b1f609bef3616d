#include "apps/radix_tree.hh"

#include <bit>
#include <cstring>
#include <deque>

#include "common/logging.hh"

namespace clumsy::apps
{

namespace
{

/** Bit b of key, counted from the MSB (b = 0 is bit 31). */
unsigned
keyBit(std::uint32_t key, std::uint32_t b)
{
    return (key >> (31 - (b & 31))) & 1u;
}

constexpr SimSize kNodeBytes = 20;
constexpr std::uint32_t kInsertBudget = 64;
constexpr std::uint32_t kLookupBudget = 64;

} // namespace

RadixTree::RadixTree(core::ClumsyProcessor &proc)
{
    rootPtr_ = proc.alloc(4, 4);
    proc.write32(rootPtr_, 0); // simulated null: empty tree
}

SimAddr
RadixTree::newLeaf(core::ClumsyProcessor &proc, std::uint32_t key,
                   std::uint32_t value)
{
    const SimAddr n = proc.alloc(kNodeBytes, 4);
    proc.write32(n + 0, kLeafMarker);
    proc.write32(n + 4, 0);
    proc.write32(n + 8, 0);
    proc.write32(n + 12, key);
    proc.write32(n + 16, value);
    proc.execute(10);
    ++nodes_;
    return n;
}

void
RadixTree::insert(core::ClumsyProcessor &proc, std::uint32_t key,
                  std::uint32_t value)
{
    SimAddr cur = proc.read32(rootPtr_);
    proc.execute(3);
    if (cur == 0) {
        proc.write32(rootPtr_, newLeaf(proc, key, value));
        return;
    }

    // Phase 1: walk to the nearest leaf.
    core::ClumsyProcessor::LoopGuard walk(proc, kInsertBudget,
                                          "radix insert walk");
    for (;;) {
        if (!walk.tick())
            return;
        const std::uint32_t kind = proc.read32(cur + 0);
        proc.execute(4);
        if (isLeaf(kind))
            break;
        cur = proc.read32(cur + (keyBit(key, kind) ? 8 : 4));
        proc.execute(3);
        if (proc.fatalOccurred())
            return;
    }
    const std::uint32_t leafKey = proc.read32(cur + 12);
    proc.execute(2);
    if (leafKey == key) {
        proc.write32(cur + 16, value); // update in place
        proc.execute(2);
        return;
    }

    // Phase 2: split at the first differing bit.
    const auto diff =
        static_cast<std::uint32_t>(std::countl_zero(key ^ leafKey));
    const SimAddr leaf = newLeaf(proc, key, value);

    SimAddr linkAddr = rootPtr_;
    SimAddr node = proc.read32(linkAddr);
    proc.execute(3);
    core::ClumsyProcessor::LoopGuard reinsert(proc, kInsertBudget,
                                              "radix insert reinsert");
    for (;;) {
        if (!reinsert.tick())
            return;
        const std::uint32_t kind = proc.read32(node + 0);
        proc.execute(4);
        if (isLeaf(kind) || (kind & 31u) > diff)
            break;
        linkAddr = node + (keyBit(key, kind) ? 8 : 4);
        node = proc.read32(linkAddr);
        proc.execute(3);
        if (proc.fatalOccurred())
            return;
    }

    const SimAddr inner = proc.alloc(kNodeBytes, 4);
    ++nodes_;
    proc.write32(inner + 0, diff);
    if (keyBit(key, diff)) {
        proc.write32(inner + 4, node);
        proc.write32(inner + 8, leaf);
    } else {
        proc.write32(inner + 4, leaf);
        proc.write32(inner + 8, node);
    }
    proc.write32(inner + 12, 0);
    proc.write32(inner + 16, 0);
    proc.write32(linkAddr, inner);
    proc.execute(12);
}

void
RadixTree::bulkInstall(core::ClumsyProcessor &proc,
                       const std::vector<std::uint32_t> &keys,
                       const std::vector<std::uint32_t> &values)
{
    CLUMSY_ASSERT(keys.size() == values.size(), "key/value mismatch");
    // Emptiness is host-side bookkeeping, not a peek at the root
    // cell: the constructor's null store goes through the timed,
    // faultable path, so the simulated word may already be corrupted.
    // That is harmless — the install DMA-writes the root pointer.
    CLUMSY_ASSERT(nodes_ == 0, "bulkInstall needs an empty tree");
    if (keys.empty())
        return;

    // Host-side mirror of the simulated node layout.
    struct HostNode
    {
        std::uint32_t kind; // bit index or kLeafMarker
        std::uint32_t left = 0;
        std::uint32_t right = 0;
        std::uint32_t key = 0;
        std::uint32_t value = 0;
    };
    std::vector<HostNode> nodes;
    nodes.reserve(keys.size() * 2);
    std::uint32_t root = 0; // index + 1; 0 = empty

    auto hostBit = [](std::uint32_t key, std::uint32_t b) {
        return (key >> (31 - (b & 31))) & 1u;
    };

    for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::uint32_t key = keys[i];
        const std::uint32_t value = values[i];
        if (root == 0) {
            nodes.push_back({kLeafMarker, 0, 0, key, value});
            root = static_cast<std::uint32_t>(nodes.size());
            continue;
        }
        // Walk to the nearest leaf.
        std::uint32_t cur = root;
        while (!isLeaf(nodes[cur - 1].kind)) {
            cur = hostBit(key, nodes[cur - 1].kind)
                      ? nodes[cur - 1].right
                      : nodes[cur - 1].left;
        }
        if (nodes[cur - 1].key == key) {
            nodes[cur - 1].value = value;
            continue;
        }
        const auto diff = static_cast<std::uint32_t>(
            std::countl_zero(key ^ nodes[cur - 1].key));
        nodes.push_back({kLeafMarker, 0, 0, key, value});
        const auto leaf = static_cast<std::uint32_t>(nodes.size());
        // Re-walk to the splice point.
        std::uint32_t *link = &root;
        while (!isLeaf(nodes[*link - 1].kind) &&
               nodes[*link - 1].kind < diff) {
            link = hostBit(key, nodes[*link - 1].kind)
                       ? &nodes[*link - 1].right
                       : &nodes[*link - 1].left;
        }
        HostNode inner{diff, 0, 0, 0, 0};
        if (hostBit(key, diff)) {
            inner.left = *link;
            inner.right = leaf;
        } else {
            inner.left = leaf;
            inner.right = *link;
        }
        nodes.push_back(inner);
        *link = static_cast<std::uint32_t>(nodes.size());
    }

    // Serialize into simulated memory over DMA.
    const auto count = static_cast<std::uint32_t>(nodes.size());
    const SimAddr base =
        proc.alloc(count * kNodeBytes, 4);
    auto addrOf = [base](std::uint32_t idx1) -> std::uint32_t {
        return idx1 ? base + (idx1 - 1) * kNodeBytes : 0;
    };
    std::vector<std::uint8_t> blob(count * kNodeBytes);
    for (std::uint32_t i = 0; i < count; ++i) {
        const HostNode &n = nodes[i];
        const std::uint32_t words[5] = {
            n.kind, addrOf(n.left), addrOf(n.right), n.key, n.value,
        };
        std::memcpy(&blob[i * kNodeBytes], words, kNodeBytes);
    }
    proc.dmaWrite(base, blob.data(),
                  static_cast<SimSize>(blob.size()));
    const std::uint32_t rootAddr = addrOf(root);
    proc.dmaWrite(rootPtr_,
                  reinterpret_cast<const std::uint8_t *>(&rootAddr), 4);
    nodes_ += count;
}

std::uint32_t
RadixTree::lookup(core::ClumsyProcessor &proc, std::uint32_t key,
                  core::ValueRecorder *rec,
                  const char *recKey) const
{
    SimAddr cur = proc.read32(rootPtr_);
    proc.execute(3);
    if (cur == 0)
        return kNoMatch;

    core::ClumsyProcessor::LoopGuard guard(proc, kLookupBudget,
                                           "radix lookup");
    for (;;) {
        if (!guard.tick())
            return kNoMatch;
        const std::uint32_t kind = proc.read32(cur + 0);
        proc.execute(4);
        if (isLeaf(kind))
            break;
        // A corrupted bit index behaves like hardware would: only the
        // low 5 bits reach the shifter (keyBit masks), so the walk
        // continues down a wrong path instead of crashing the host.
        cur = proc.read32(cur + (keyBit(key, kind) ? 8 : 4));
        proc.execute(3);
        if (proc.fatalOccurred())
            return kNoMatch;
    }

    // The marked "radix tree entry traversed" value is the leaf the
    // walk lands on — the semantic outcome. Two differently-shaped
    // but equivalent trees (the shape is not canonical once faults
    // perturb insertion) reach the same leaf for the same key, so
    // only genuinely misrouted walks count as errors, matching the
    // paper's data-structure-value comparisons.
    const std::uint32_t leafKey = proc.read32(cur + 12);
    proc.execute(3);
    if (rec)
        rec->record(recKey, leafKey);
    if (leafKey != key)
        return kNoMatch;
    const std::uint32_t value = proc.read32(cur + 16);
    proc.execute(2);
    return value;
}

std::uint64_t
RadixTree::auditChecksum(const core::ClumsyProcessor &proc,
                         unsigned maxNodes) const
{
    // FNV-1a over node records, breadth-first, bounded. Untimed peeks:
    // this is the harness observing architectural state, not the
    // simulated program running.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint32_t v) {
        h = (h ^ v) * 1099511628211ull;
    };
    std::deque<SimAddr> queue;
    const SimAddr memLimit = proc.config().memBytes;
    const SimAddr root = proc.peek32(rootPtr_);
    if (root)
        queue.push_back(root);
    unsigned visited = 0;
    while (!queue.empty() && visited < maxNodes) {
        const SimAddr n = queue.front();
        queue.pop_front();
        if (n == 0 || n % 4 != 0 || n + kNodeBytes > memLimit) {
            mix(0xdeadbeefu); // wild pointer is itself a corruption
            ++visited;
            continue;
        }
        ++visited;
        const std::uint32_t kind = proc.peek32(n + 0);
        mix(kind);
        if (RadixTree::isLeaf(kind)) {
            mix(proc.peek32(n + 12));
            mix(proc.peek32(n + 16));
        } else {
            const SimAddr l = proc.peek32(n + 4);
            const SimAddr r = proc.peek32(n + 8);
            mix(l);
            mix(r);
            queue.push_back(l);
            queue.push_back(r);
        }
    }
    return h;
}

} // namespace clumsy::apps
