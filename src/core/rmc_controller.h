/**
 * @file
 * RMC-style memory controller: Robust Main-Memory Compression (Ekman
 * & Stenström, ISCA 2005), the second OS-aware baseline in the
 * paper's related-work table (Tab. V: LinePack-style packing, "light"
 * data-movement optimizations).
 *
 * Design, as published and summarized by the paper:
 *  - OS-aware: translation metadata lives with the page table (a
 *    Block Size Table cached on chip); page overflows fault to the OS.
 *  - A page is divided into four subpages, each packed LinePack-style
 *    (per-line size codes, offset by prefix sum within the subpage).
 *  - Each subpage ends in a small hysteresis area that absorbs line
 *    growth without touching the neighboring subpages; only when a
 *    subpage outgrows slack do the following subpages shift ("light"
 *    movement), and only when the page outgrows its allocation does
 *    the OS get involved.
 *  - No repacking, no overflow prediction, no inflation room.
 */

#ifndef COMPRESSO_CORE_RMC_CONTROLLER_H
#define COMPRESSO_CORE_RMC_CONTROLLER_H

#include <memory>

#include "compress/factory.h"
#include "compress/size_bins.h"
#include "core/compressed_controller.h"

namespace compresso {

struct RmcConfig
{
    std::string compressor = "bpc";
    /** Original RMC used ratio-optimal sizes (our legacy bins). */
    bool alignment_friendly = false;
    /** Hysteresis slack appended to each subpage. */
    uint32_t hysteresis_bytes = 64;
    MetadataCacheConfig bst{96 * 1024, 8, /*half_entry_opt=*/false};
    uint64_t installed_bytes = uint64_t(8) << 30;
    Cycle compression_latency = 12;
    Cycle bst_hit_latency = 2;
    /** OS page-fault cost for a page overflow. */
    Cycle page_fault_cycles = 9000;
};

/** Per-page RMC state: per-line size codes in four subpages. */
struct RmcPage
{
    static constexpr unsigned kSubpages = 4;

    bool valid = false;
    bool zero = false;
    std::array<uint8_t, kLinesPerPage> code{};   ///< bin per line
    std::array<uint32_t, kSubpages> sub_alloc{}; ///< bytes incl slack
    uint8_t chunks = 0;
    std::array<uint32_t, kChunksPerPage> mpfn;

    RmcPage() { mpfn.fill(kNoChunk); }
};

/** The metadata cache of CompressedController plays the role of RMC's
 *  on-chip Block Size Table cache (BST). */
class RmcController : public CompressedController<RmcPage>
{
  public:
    explicit RmcController(const RmcConfig &cfg);

    std::string name() const override { return "rmc"; }

    void fillLine(Addr addr, Line &data, McTrace &trace) override;
    void writebackLine(Addr addr, const Line &data,
                       McTrace &trace) override;

    static constexpr unsigned kSubpages = RmcPage::kSubpages;
    static constexpr unsigned kLinesPerSubpage =
        kLinesPerPage / kSubpages;

  private:
    uint32_t subpageOf(LineIdx idx) const
    {
        return idx / kLinesPerSubpage;
    }
    /** Packed bytes of subpage @p sp (sum of its line bins). */
    uint32_t subPack(const RmcPage &p, unsigned sp) const;
    /** Byte offset of subpage @p sp (sum of preceding sub_alloc). */
    uint32_t subBase(const RmcPage &p, unsigned sp) const;
    /** Byte offset of line @p idx. */
    uint32_t lineOffset(const RmcPage &p, LineIdx idx) const;
    /** Bytes laid out: every subpage including its slack. */
    static uint32_t usedBytes(const RmcPage &p);

    void readStored(const RmcPage &p, LineIdx idx, Line &out) const;
    /** Re-lay out the whole page for new codes (subpage shift or OS
     *  page overflow), preserving data. */
    void relayout(PageNum pn, RmcPage &p,
                  const std::array<uint8_t, kLinesPerPage> &codes,
                  LineIdx idx, const Line &raw, bool os_fault,
                  McTrace &trace);

    // --- fault ladder hooks: a BST fault traps to the OS, which
    // rebuilds the entry from its own structures (a page fault's
    // stall); the safe state is the raw layout ---
    void osFaultStall(McTrace &trace) override;
    bool pageRaw(const RmcPage &p) const override;
    void relayoutRaw(PageNum pn, RmcPage &p, McTrace &trace) override;

    RmcConfig cfg_;
    const SizeBins *bins_;
    std::unique_ptr<Compressor> codec_;

    // Cached hot-path counter handles (stable across reset()).
    uint64_t &st_split_wb_lines_ = stats_.stat("split_wb_lines");
    uint64_t &st_overflow_move_ops_ = stats_.stat("overflow_move_ops");
    uint64_t &st_page_overflows_ = stats_.stat("page_overflows");
    uint64_t &st_page_faults_ = stats_.stat("page_faults");
    uint64_t &st_page_fault_cycles_ = stats_.stat("page_fault_cycles");
    uint64_t &st_subpage_shifts_ = stats_.stat("subpage_shifts");
    uint64_t &st_pages_touched_ = stats_.stat("pages_touched");
    uint64_t &st_hysteresis_absorbs_ = stats_.stat("hysteresis_absorbs");
    uint64_t &st_overflow_escalations_ =
        stats_.stat("overflow_escalations");
};

} // namespace compresso

#endif // COMPRESSO_CORE_RMC_CONTROLLER_H
