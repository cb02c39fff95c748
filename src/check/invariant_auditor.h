/**
 * @file
 * InvariantAuditor: end-to-end cross-checks of the compressed-memory
 * state no single module can verify locally.
 *
 * Three layers, all returning/feeding an AuditReport:
 *
 *  - checkCompressoPage(): per-page structural checks of one Compresso
 *    MetadataEntry against the configured size bins and the chunk
 *    allocator — chunk pointers live and in range, size codes valid,
 *    inflation pointers distinct, packed bytes + inflation room within
 *    the allocation, `free_space` equal to the slack recomputed from
 *    the actual per-line compressed bins (Secs. III-IV).
 *
 *  - ChunkCrossCheck: controller-agnostic accounting of the MPA chunk
 *    map. Feed it every (page, chunk) mapping; finish() verifies the
 *    mapped set exactly complements the allocator's free list: no
 *    leaks (live but unreachable), no double-mapping, no
 *    use-after-release, nothing past the allocation frontier.
 *
 *  - auditChunkMap<PageMap>(): the generic audit for the baseline
 *    controllers (LCP/RMC/DMC), whose per-page state exposes the
 *    common `valid` / `zero` / `chunks` / `mpfn` shape.
 *
 * Controllers expose the full pass as MemoryController::audit();
 * COMPRESSO_CHECKED_BUILD wires the page-local layer into every
 * state-mutation boundary as a fatal assertion.
 */

#ifndef COMPRESSO_CHECK_INVARIANT_AUDITOR_H
#define COMPRESSO_CHECK_INVARIANT_AUDITOR_H

#include <string>
#include <unordered_map>
#include <vector>

#include "check/audit_report.h"
#include "compress/size_bins.h"
#include "core/chunk_allocator.h"
#include "meta/metadata_entry.h"
#include "packing/linepack.h"

namespace compresso {

/** One tenant partition of the OSPA space: [base, base + pages). */
struct PartitionRange
{
    PageNum base = 0;
    uint64_t pages = 0;
};

class InvariantAuditor
{
  public:
    /** @param bins   size-bin set the audited controller packs with
     *  @param sizing page sizing scheme (affects free_space recompute) */
    InvariantAuditor(const SizeBins &bins, PageSizing sizing)
        : bins_(bins), sizing_(sizing)
    {
    }

    /**
     * Page-local structural checks of one Compresso metadata entry.
     *
     * @param actual_bin per-line actual compressed bins (the
     *        controller's shadow state free_space is derived from),
     *        or nullptr to skip the free_space recomputation.
     */
    void checkCompressoPage(PageNum page, const MetadataEntry &m,
                            const uint8_t *actual_bin,
                            const ChunkAllocator &alloc,
                            AuditReport &rep) const;

    /**
     * Tenant-isolation audit (the multi-tenant service mode,
     * DESIGN.md §17): the declared partitions must be pairwise
     * disjoint, and every page in @p pages (typically the OS resident
     * set, or the set of pages a tenant's session touched) must fall
     * inside one of them. Every breach is a kCrossPartition
     * violation — a page living outside the partition map means some
     * path wrote or freed memory no tenant owns.
     */
    static AuditReport
    auditPartitions(const std::vector<PartitionRange> &partitions,
                    const std::vector<PageNum> &pages);

    /** Cross-structure chunk accounting (all controllers). */
    class ChunkCrossCheck
    {
      public:
        /** Record that @p page reaches @p chunk via its metadata.
         *  Reports double-mapping immediately. */
        void mapChunk(PageNum page, ChunkNum chunk, AuditReport &rep);

        /** Compare the mapped set against the allocator: leaks,
         *  use-after-release, out-of-range ids. */
        void finish(const ChunkAllocator &alloc, AuditReport &rep);

      private:
        std::unordered_map<ChunkNum, PageNum> owner_;
    };

    /**
     * Generic chunk-map audit over a page table whose mapped type
     * exposes `valid`, `zero`, `chunks` and `mpfn` (the page shape of
     * core/compressed_controller.h).
     */
    template <class PageMap>
    static AuditReport
    auditChunkMap(const PageMap &pages, const ChunkAllocator &alloc)
    {
        AuditReport rep;
        ChunkCrossCheck xc;
        for (const auto &[pn, p] : pages) {
            if (!p.valid || p.zero) {
                if (p.chunks != 0)
                    rep.add(p.zero ? ViolationKind::kZeroPageStorage
                                   : ViolationKind::kInvalidPageStorage,
                            pn, kNoChunk,
                            "page owns " + std::to_string(p.chunks) +
                                " chunk(s)");
                continue;
            }
            if (p.chunks > kChunksPerPage) {
                rep.add(ViolationKind::kChunkCountBad, pn, kNoChunk,
                        std::to_string(p.chunks) + " chunks");
                continue;
            }
            for (unsigned c = 0; c < kChunksPerPage; ++c) {
                if (c < p.chunks) {
                    if (p.mpfn[c] == kNoChunk)
                        rep.add(ViolationKind::kMpfnMissing, pn,
                                kNoChunk,
                                "slot " + std::to_string(c));
                    else
                        xc.mapChunk(pn, p.mpfn[c], rep);
                } else if (p.mpfn[c] != kNoChunk) {
                    rep.add(ViolationKind::kMpfnNotCleared, pn,
                            p.mpfn[c],
                            "slot " + std::to_string(c));
                }
            }
        }
        xc.finish(alloc, rep);
        return rep;
    }

  private:
    const SizeBins &bins_;
    PageSizing sizing_;
};

} // namespace compresso

#endif // COMPRESSO_CHECK_INVARIANT_AUDITOR_H
