#include "traffic/pattern.h"

#include "common/log.h"

namespace catnap {

const char *
pattern_kind_name(PatternKind k)
{
    switch (k) {
      case PatternKind::kUniformRandom: return "uniform";
      case PatternKind::kTranspose:     return "transpose";
      case PatternKind::kBitComplement: return "bitcomp";
      case PatternKind::kBitReverse:    return "bitrev";
      case PatternKind::kShuffle:       return "shuffle";
      case PatternKind::kHotspot:       return "hotspot";
      case PatternKind::kNeighbor:      return "neighbor";
    }
    return "?";
}

namespace {

/** Number of bits needed to address num_nodes nodes. */
int
node_bits(int num_nodes)
{
    int bits = 0;
    while ((1 << bits) < num_nodes)
        ++bits;
    return bits;
}

class UniformRandomPattern final : public TrafficPattern
{
  public:
    UniformRandomPattern(int num_nodes, Rng rng)
        : num_nodes_(num_nodes), rng_(rng)
    {
    }

    NodeId
    destination(NodeId src) override
    {
        // Uniform over all nodes except the source.
        auto d = static_cast<NodeId>(rng_.next_below(
            static_cast<std::uint64_t>(num_nodes_ - 1)));
        if (d >= src)
            ++d;
        return d;
    }

  private:
    int num_nodes_;
    Rng rng_;
};

/** Fixed permutation with self-images redirected to the next node. */
class PermutationPattern final : public TrafficPattern
{
  public:
    PermutationPattern(const ConcentratedMesh &mesh, PatternKind kind)
    {
        const int n = mesh.num_nodes();
        const int bits = node_bits(n);
        map_.resize(static_cast<std::size_t>(n));
        for (NodeId s = 0; s < n; ++s) {
            NodeId d = s;
            const Coord c = mesh.coord(s);
            switch (kind) {
              case PatternKind::kTranspose:
                d = mesh.node_at({c.y, c.x});
                break;
              case PatternKind::kBitComplement:
                d = static_cast<NodeId>((~static_cast<unsigned>(s)) &
                                        ((1u << bits) - 1));
                break;
              case PatternKind::kBitReverse: {
                unsigned v = static_cast<unsigned>(s);
                unsigned r = 0;
                for (int b = 0; b < bits; ++b) {
                    r = (r << 1) | (v & 1u);
                    v >>= 1;
                }
                d = static_cast<NodeId>(r);
                break;
              }
              case PatternKind::kShuffle: {
                const unsigned v = static_cast<unsigned>(s);
                d = static_cast<NodeId>(
                    ((v << 1) | (v >> (bits - 1))) & ((1u << bits) - 1));
                break;
              }
              case PatternKind::kNeighbor: {
                const NodeId e = mesh.neighbor(s, Direction::kEast);
                d = (e == kInvalidNode)
                        ? mesh.node_at({0, c.y})
                        : e;
                break;
              }
              default:
                CATNAP_PANIC("not a permutation pattern");
            }
            if (d < 0 || d >= n || d == s)
                d = (s + 1) % n; // keep every source offering load
            map_[static_cast<std::size_t>(s)] = d;
        }
    }

    NodeId
    destination(NodeId src) override
    {
        return map_[static_cast<std::size_t>(src)];
    }

  private:
    std::vector<NodeId> map_;
};

class HotspotPattern final : public TrafficPattern
{
  public:
    HotspotPattern(int num_nodes, Rng rng, NodeId hotspot,
                   double hotspot_fraction = 0.25)
        : num_nodes_(num_nodes), rng_(rng), hotspot_(hotspot),
          fraction_(hotspot_fraction)
    {
    }

    NodeId
    destination(NodeId src) override
    {
        if (src != hotspot_ && rng_.bernoulli(fraction_))
            return hotspot_;
        auto d = static_cast<NodeId>(rng_.next_below(
            static_cast<std::uint64_t>(num_nodes_ - 1)));
        if (d >= src)
            ++d;
        return d;
    }

  private:
    int num_nodes_;
    Rng rng_;
    NodeId hotspot_;
    double fraction_;
};

} // namespace

std::unique_ptr<TrafficPattern>
make_pattern(PatternKind kind, const ConcentratedMesh &mesh, Rng rng,
             NodeId hotspot_node)
{
    switch (kind) {
      case PatternKind::kUniformRandom:
        return std::make_unique<UniformRandomPattern>(mesh.num_nodes(),
                                                      rng);
      case PatternKind::kHotspot: {
        const NodeId target =
            hotspot_node == kInvalidNode
                ? mesh.node_at({mesh.width() / 2, mesh.height() / 2})
                : hotspot_node;
        return std::make_unique<HotspotPattern>(mesh.num_nodes(), rng,
                                                target);
      }
      default:
        return std::make_unique<PermutationPattern>(mesh, kind);
    }
}

} // namespace catnap
