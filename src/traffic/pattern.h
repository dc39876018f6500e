/**
 * @file
 * Synthetic traffic destination patterns (Section 4.1: uniform random,
 * bit complement, transpose; plus the standard extras used in NoC
 * evaluation practice).
 */
#ifndef CATNAP_TRAFFIC_PATTERN_H
#define CATNAP_TRAFFIC_PATTERN_H

#include <memory>
#include <string>

#include "common/phase.h"
#include "common/rng.h"
#include "common/types.h"
#include "topology/topology.h"

namespace catnap {

/** Supported synthetic destination patterns. */
enum class PatternKind : int {
    kUniformRandom = 0,
    kTranspose = 1,
    kBitComplement = 2,
    kBitReverse = 3,
    kShuffle = 4,
    kHotspot = 5,
    kNeighbor = 6,
};

/** Human-readable pattern name. */
const char *pattern_kind_name(PatternKind k);

/**
 * Maps a source node to a destination node. Stateless except for the
 * shared RNG used by the random patterns.
 */
class TrafficPattern
{
  public:
    virtual ~TrafficPattern() = default;

    /**
     * Destination for a packet from @p src. Never returns src for
     * permutation patterns whose image equals the source (such sources
     * simply redirect to a neighbouring node so every node still offers
     * load).
     */
    virtual NodeId destination(NodeId src) = 0;
};

/**
 * Builds the pattern @p kind over @p mesh.
 *
 * @param rng RNG consumed by randomized patterns (uniform, hotspot)
 * @param hotspot_node target for PatternKind::kHotspot (default: centre)
 */
std::unique_ptr<TrafficPattern>
make_pattern(PatternKind kind, const ConcentratedMesh &mesh, Rng rng,
             NodeId hotspot_node = kInvalidNode);

} // namespace catnap

#endif // CATNAP_TRAFFIC_PATTERN_H
