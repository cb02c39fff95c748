/**
 * @file
 * DMC-style memory controller: Transparent Dual Memory Compression
 * (Kim, Lee, Kim & Huh, PACT 2017) — the other OS-transparent system
 * in the paper's related-work table (Tab. V).
 *
 * DMC keeps two compressed representations and migrates between them:
 *  - **hot** pages use a fast line-granularity scheme (LCP with BDI in
 *    the original; we use the same LinePack machinery as elsewhere so
 *    the comparison isolates DMC's *granularity* decisions);
 *  - **cold** pages are Lempel-Ziv-compressed at 1 KB granularity for
 *    a higher ratio — at the cost that touching any line of a cold
 *    1 KB block requires fetching and decompressing the whole block,
 *    and any write dirties it back to hot.
 *
 * The controller demotes pages that have not been touched for a full
 * decay epoch and promotes cold pages on first write (reads are served
 * from the cold image directly, paying the block cost). The paper's
 * critique — "opportunistically changing the granularity of
 * compression involves substantial additional data movement" — falls
 * out of exactly these migrations (stat: migration_ops).
 */

#ifndef COMPRESSO_CORE_DMC_CONTROLLER_H
#define COMPRESSO_CORE_DMC_CONTROLLER_H

#include <memory>
#include <vector>

#include "compress/factory.h"
#include "compress/size_bins.h"
#include "core/compressed_controller.h"

namespace compresso {

struct DmcConfig
{
    std::string hot_compressor = "bdi"; ///< as in the original design
    std::string cold_compressor = "lz";
    /** Writebacks per decay epoch; untouched pages demote at epoch
     *  end. */
    uint64_t epoch_writebacks = 4096;
    MetadataCacheConfig mdcache{96 * 1024, 8, /*half_entry_opt=*/false};
    uint64_t installed_bytes = uint64_t(8) << 30;
    Cycle hot_latency = 6;    ///< BDI decompression
    Cycle cold_latency = 64;  ///< LZ over a 1 KB block
    Cycle mdcache_hit_latency = 2;
};

/** Per-page DMC state: hot line codes or cold 1 KB block sizes. */
struct DmcPage
{
    /** 1 KB cold-compression granularity: 4 blocks per page. */
    static constexpr unsigned kColdBlocks = 4;

    bool valid = false;
    bool zero = false;
    bool cold = false;
    bool touched_this_epoch = true;
    std::array<uint8_t, kLinesPerPage> code{}; ///< hot: bin per line
    /** Cold representation: per-1KB-block compressed byte counts
     *  (the blocks are stored back to back). */
    std::array<uint32_t, kColdBlocks> cold_bytes{};
    uint8_t chunks = 0;
    std::array<uint32_t, kChunksPerPage> mpfn;

    DmcPage() { mpfn.fill(kNoChunk); }
};

class DmcController : public CompressedController<DmcPage>
{
  public:
    explicit DmcController(const DmcConfig &cfg);

    std::string name() const override { return "dmc"; }

    void fillLine(Addr addr, Line &data, McTrace &trace) override;
    void writebackLine(Addr addr, const Line &data,
                       McTrace &trace) override;

    static constexpr unsigned kColdBlocks = DmcPage::kColdBlocks;
    static constexpr unsigned kLinesPerColdBlock =
        kLinesPerPage / kColdBlocks;

    /** True if @p page is currently in the cold representation. */
    bool isCold(PageNum page) { return pages_[page].cold; }

  private:
    uint32_t hotOffset(const DmcPage &p, LineIdx idx) const;
    uint32_t hotPack(const DmcPage &p) const;

    void readHotLine(const DmcPage &p, LineIdx idx, Line &out) const;
    /** Rewrite the page in hot representation with the given data. */
    void layoutHot(DmcPage &p, const std::array<Line, kLinesPerPage> &buf,
                   McTrace &trace,
                   AttribComp comp = AttribComp::kRepack);
    /** Gather the page's current content (either representation). */
    void gather(const DmcPage &p, std::array<Line, kLinesPerPage> &buf,
                McTrace *trace,
                AttribComp comp = AttribComp::kRepack);

    void demoteToCold(PageNum pn, DmcPage &p, McTrace &trace);
    void promoteToHot(PageNum pn, DmcPage &p, McTrace &trace);
    void decayEpoch(McTrace &trace);

    // --- fault ladder hooks: like Compresso, the hardware re-walks the
    // page's stored image; the safe state is the raw hot layout ---
    uint32_t rebuildWalkBytes(const DmcPage &p) const override;
    uint64_t rebuildEstimate(const DmcPage &p,
                             uint32_t walk) const override;
    bool pageRaw(const DmcPage &p) const override;
    void relayoutRaw(PageNum pn, DmcPage &p, McTrace &trace) override;

    DmcConfig cfg_;
    std::unique_ptr<Compressor> hot_codec_;
    std::unique_ptr<Compressor> cold_codec_;
    uint64_t epoch_wbs_ = 0;

    // Cached hot-path counter handles (stable across reset()).
    uint64_t &st_migration_ops_ = stats_.stat("migration_ops");
    uint64_t &st_demotions_ = stats_.stat("demotions");
    uint64_t &st_promotions_ = stats_.stat("promotions");
    uint64_t &st_cold_block_reads_ = stats_.stat("cold_block_reads");
    uint64_t &st_pages_touched_ = stats_.stat("pages_touched");
    uint64_t &st_demotions_throttled_ =
        stats_.stat("demotions_throttled");
};

} // namespace compresso

#endif // COMPRESSO_CORE_DMC_CONTROLLER_H
