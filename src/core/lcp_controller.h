/**
 * @file
 * OS-aware LCP-based memory controller: the competitive baseline of
 * Sec. VI-F.
 *
 * Linearly Compressed Pages (Pekhimenko et al., MICRO 2013) with the
 * paper's "enhanced" configuration: the optimized BPC compressor, four
 * compressed page sizes (512 B / 1 KB / 2 KB / 4 KB), an exception
 * region per page, the same-size metadata cache as Compresso, and the
 * bandwidth benefits of zero-line handling and free prefetch.
 *
 * Two properties distinguish it from Compresso:
 *  - OS-aware: a page overflow raises a page fault; the OS reallocates
 *    the page (full relocation plus a fixed fault penalty).
 *  - Speculation: because the TLB carries the per-page target size,
 *    the slot access can issue in parallel with the metadata access;
 *    exceptions pay an extra serialized access.
 *
 * The LCP+Align variant (Sec. VI-F) swaps the target-size candidates
 * from the legacy 22/44 B set to Compresso's alignment-friendly
 * 8/32/64 B set.
 */

#ifndef COMPRESSO_CORE_LCP_CONTROLLER_H
#define COMPRESSO_CORE_LCP_CONTROLLER_H

#include <bitset>
#include <memory>

#include "compress/factory.h"
#include "compress/size_bins.h"
#include "core/compressed_controller.h"
#include "packing/lcp.h"

namespace compresso {

struct LcpConfig
{
    std::string compressor = "bpc";
    /** LCP+Align: alignment-friendly target sizes (Sec. VI-F). */
    bool alignment_friendly = false;
    MetadataCacheConfig mdcache{96 * 1024, 8, /*half_entry_opt=*/false};
    bool speculative_access = true;
    /** Device-side stream buffer (ablation only; free prefetch is
     *  modeled via McTrace::co_fetched + LLC insertion). */
    bool stream_buffer = true;
    unsigned stream_buffer_blocks = 4;
    uint64_t installed_bytes = uint64_t(8) << 30;
    Cycle compression_latency = 12;
    Cycle mdcache_hit_latency = 2;
    /** OS page-fault handling cost for a page overflow (~3 us). */
    Cycle page_fault_cycles = 9000;
};

/** Per-page LCP metadata (functional form). */
struct LcpPage
{
    bool valid = false;
    bool zero = false;
    uint16_t target = 0; ///< slot size in bytes
    uint8_t chunks = 0;  ///< 512 B units backing the page
    std::array<uint32_t, kChunksPerPage> mpfn;
    std::bitset<kLinesPerPage> zero_line; ///< zero-line shortcut
    /** Exception slot per line; 0xff = stored in its slot. */
    std::array<uint8_t, kLinesPerPage> exc_slot;
    std::bitset<kLinesPerPage> exc_map; ///< occupied exception slots
    /** Actual compressed size per line (for overflow re-layout). */
    std::array<uint16_t, kLinesPerPage> actual_bytes{};

    LcpPage()
    {
        mpfn.fill(kNoChunk);
        exc_slot.fill(0xff);
    }
};

class LcpController : public CompressedController<LcpPage>
{
  public:
    explicit LcpController(const LcpConfig &cfg);

    std::string name() const override
    {
        return cfg_.alignment_friendly ? "lcp+align" : "lcp";
    }

    void fillLine(Addr addr, Line &data, McTrace &trace) override;
    void writebackLine(Addr addr, const Line &data,
                       McTrace &trace) override;

    const SizeBins &targetBins() const { return *bins_; }

  private:
    uint32_t excCapacity(const LcpPage &p) const;
    uint32_t slotOffset(const LcpPage &p, LineIdx idx) const
    {
        return idx * uint32_t(p.target);
    }
    uint32_t excOffset(const LcpPage &p, unsigned slot) const
    {
        return uint32_t(kLinesPerPage) * p.target +
               slot * uint32_t(kLineBytes);
    }

    struct Encoded
    {
        std::vector<uint8_t> bytes;
        bool zero = false;
    };
    Encoded encodeLine(const Line &data) const;
    void readStored(const LcpPage &p, LineIdx idx, Line &out) const;
    void writeStored(PageNum pn, LcpPage &p, LineIdx idx, const Line &raw,
                     const Encoded &enc, McTrace &trace);

    /** OS-visible page overflow: re-layout with a new target (page
     *  fault + full relocation). */
    void pageOverflow(PageNum pn, LcpPage &p, LineIdx idx, const Line &raw,
                      const Encoded &enc, McTrace &trace);

    void initialAllocate(LcpPage &p, const Encoded &enc);

    // --- fault ladder hooks: a metadata fault traps to the OS, which
    // rebuilds the entry from its page tables (a page fault's stall);
    // the safe state is the uncompressed 64 B-target layout ---
    void osFaultStall(McTrace &trace) override;
    bool pageRaw(const LcpPage &p) const override
    {
        return p.target == kLineBytes;
    }
    void relayoutRaw(PageNum pn, LcpPage &p, McTrace &trace) override;

    LcpConfig cfg_;
    const SizeBins *bins_;
    std::unique_ptr<Compressor> codec_;

    // Cached hot-path counter handles (stable across reset()).
    uint64_t &st_split_wb_lines_ = stats_.stat("split_wb_lines");
    uint64_t &st_co_fetched_lines_ = stats_.stat("co_fetched_lines");
    uint64_t &st_page_overflows_ = stats_.stat("page_overflows");
    uint64_t &st_page_faults_ = stats_.stat("page_faults");
    uint64_t &st_page_fault_cycles_ = stats_.stat("page_fault_cycles");
    uint64_t &st_overflow_move_ops_ = stats_.stat("overflow_move_ops");
    uint64_t &st_exception_accesses_ = stats_.stat("exception_accesses");
    uint64_t &st_exception_extra_ops_ = stats_.stat("exception_extra_ops");
    uint64_t &st_pages_touched_ = stats_.stat("pages_touched");
    uint64_t &st_ir_placements_ = stats_.stat("ir_placements");
    uint64_t &st_overflow_escalations_ =
        stats_.stat("overflow_escalations");
};

} // namespace compresso

#endif // COMPRESSO_CORE_LCP_CONTROLLER_H
