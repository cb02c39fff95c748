/**
 * @file
 * The Compresso memory controller (Secs. III-V): an OS-transparent
 * compressed main memory living entirely in the memory controller.
 *
 * Functional model: lines written back from the LLC are compressed
 * (BPC by default), quantized to size bins, and packed with LinePack
 * into 512 B machine chunks; fills decompress the stored bytes. The
 * per-page metadata entry, metadata cache, inflation room, overflow
 * predictor, dynamic inflation-room expansion and
 * repack-on-metadata-eviction are all implemented as described in the
 * paper, each behind an independent config flag so the Fig. 4/6/7
 * experiments toggle the real mechanisms.
 *
 * Timing model: every operation reports the 64 B device accesses it
 * caused (demand-critical vs background) plus fixed latencies
 * (metadata cache hit 2 cycles, offset adder 1 cycle, (de)compression
 * 12 cycles — Tab. III).
 */

#ifndef COMPRESSO_CORE_COMPRESSO_CONTROLLER_H
#define COMPRESSO_CORE_COMPRESSO_CONTROLLER_H

#include <memory>
#include <unordered_map>

#include "compress/factory.h"
#include "compress/size_bins.h"
#include "core/compressed_controller.h"
#include "core/offset_circuit.h"
#include "core/predictor.h"
#include "meta/metadata_entry.h"
#include "packing/linepack.h"

namespace compresso {

struct CompressoConfig
{
    std::string compressor = "bpc";

    /** Alignment-friendly 0/8/32/64 bins (Sec. IV-B1) vs legacy
     *  0/22/44/64. Overridden by @ref line_bins if set. */
    bool alignment_friendly = true;
    const SizeBins *line_bins = nullptr;

    /** Incremental 512 B chunks (Compresso) vs 4 variable sizes. */
    PageSizing page_sizing = PageSizing::kChunked512;

    // Optimization toggles (Sec. IV-B).
    bool inflation_room = true;        ///< base inflation room (Sec. III)
    bool overflow_prediction = true;   ///< Sec. IV-B2
    bool dynamic_ir_expansion = true;  ///< Sec. IV-B3
    bool repack_on_evict = true;       ///< Sec. IV-B4
    MetadataCacheConfig mdcache;       ///< half_entry_opt = Sec. IV-B5

    /** Device-side stream buffer (ablation only; the free-prefetch
     *  effect is modeled via McTrace::co_fetched + LLC insertion). */
    bool stream_buffer = true;
    unsigned stream_buffer_blocks = 4;

    uint64_t installed_bytes = uint64_t(8) << 30; ///< data-chunk arena

    Cycle compression_latency = 12; ///< Tab. III (BPC, each direction)
    Cycle mdcache_hit_latency = 2;
};

class CompressoController : public CompressedController<MetadataEntry>
{
  public:
    explicit CompressoController(const CompressoConfig &cfg);

    std::string name() const override { return "compresso"; }

    void fillLine(Addr addr, Line &data, McTrace &trace) override;
    void writebackLine(Addr addr, const Line &data,
                       McTrace &trace) override;

    /** Also caches the page-occupancy and repack-cost histograms. */
    void attachObserver(Observer *obs) override;

    PageOverflowPredictor &predictor() { return predictor_; }
    const SizeBins &lineBins() const { return *bins_; }
    const CompressoConfig &config() const { return cfg_; }

    /** Metadata entry for a page (creating an invalid one if absent);
     *  exposed for tests and diagnostics. */
    const MetadataEntry &pageMeta(PageNum page) { return pages_[page]; }

    /** Force a repack pass over every touched page (diagnostic /
     *  best-case accounting; not part of the architecture). */
    void repackAll();

    /** MemoryController::flush: settle pending repacking so capacity
     *  accounting reflects current data. */
    void flush() override { repackAll(); }

    /**
     * Full cross-structure invariant audit (Secs. III-IV): chunk
     * allocator free list vs chunks reachable from valid metadata
     * MPFNs (no leaks, double-mapping, or use-after-release),
     * per-page chunks/free_space/inflate_count recomputed from the
     * line size codes, size-bin code validity for the configured bin
     * set, and zero pages owning no storage.
     */
    AuditReport audit() const override;

    /** Mutable metadata access for fault-injection tests ONLY: lets
     *  the auditor tests plant corruptions (leaked chunks, stale
     *  free_space, invalid codes) and prove audit() reports them.
     *  Never use from simulation code. */
    MetadataEntry &pageMetaForTest(PageNum page) { return pages_[page]; }

    /** Chunk-allocator access for the same fault-injection tests. */
    ChunkAllocator &chunkAllocatorForTest() { return chunks_; }

  private:
    struct PageShadow
    {
        /** Most recent *actual* compressed bin per line, which may be
         *  smaller than the slot recorded in line_code (underflows are
         *  only harvested at repack time). */
        std::array<uint8_t, kLinesPerPage> actual_bin{};
        bool predictor_inflated = false;
    };

    /** COMPRESSO_CHECKED_BUILD: fatal page-local invariant check,
     *  run at state-mutation boundaries (writeback/overflow paths,
     *  repack, page free). Aborts with the violation report — unless
     *  COMPRESSO_FAULT_RECOVERY is compiled in and a fault injector
     *  with recovery enabled is attached, in which case the page is
     *  degraded to a safe state instead (recoverCorruptPage). */
    void checkedAudit(PageNum page, const char *site);

    /** Page-local invariant audit, shared by checkedAudit and the
     *  recovery path. */
    AuditReport auditPage(PageNum page) const;

    // --- fault ladder hooks: a hardware re-walk of the stored page;
    // the safe state is the uncompressed 4 KB page ---
    uint32_t rebuildWalkBytes(const MetadataEntry &m) const override
    {
        return usedBytes(m);
    }
    bool pageRaw(const MetadataEntry &m) const override
    {
        return !m.compressed;
    }
    void relayoutRaw(PageNum page, MetadataEntry &m,
                     McTrace &trace) override;
    /** Best-effort local repair of an audit-caught corrupt page:
     *  recompute derived fields, else retire the page to a poisoned
     *  zero state. Returns false if the damage is cross-structure
     *  (leaked/double-mapped chunks) and only an abort is safe. */
    bool recoverCorruptPage(PageNum page);

    /** Repack-on-eviction trigger (Sec. IV-B4). */
    void onMetaEvict(PageNum page) override;
    void onPageFreed(PageNum page) override;

    PageShadow &shadow(PageNum page) { return shadow_[page]; }

    // --- layout helpers ---
    uint32_t packBytes(const MetadataEntry &m) const;
    uint32_t irBase(const MetadataEntry &m) const;
    /** Bytes holding data: packed lines plus inflated lines, or the
     *  whole page when it is stored raw. */
    uint32_t
    usedBytes(const MetadataEntry &m) const
    {
        return m.compressed ? irBase(m) + uint32_t(m.inflate_count) *
                                              uint32_t(kLineBytes)
                            : uint32_t(kPageBytes);
    }
    /** IR slot index of line @p idx, or -1 if not inflated. */
    int inflateSlot(const MetadataEntry &m, LineIdx idx) const;

    // --- compression helpers ---
    struct Encoded
    {
        std::vector<uint8_t> bytes; ///< empty for zero lines
        unsigned bin = 0;
        bool zero = false;
    };
    Encoded encodeLine(const Line &data) const;
    void decodeSlot(const MetadataEntry &m, uint32_t off, unsigned bin,
                    Line &out) const;
    /** Every line of a compressed page, decoded (zero for empty
     *  slots). */
    void gatherPage(const MetadataEntry &m,
                    std::array<Line, kLinesPerPage> &buf) const;

    // --- page lifecycle ---
    void firstTouch(MetadataEntry &m);
    void materializeZeroPage(MetadataEntry &m, PageShadow &sh);
    void writeToSlot(PageNum page, MetadataEntry &m, LineIdx idx,
                     const Encoded &enc, McTrace &trace);
    void handleLineOverflow(PageNum page, MetadataEntry &m, LineIdx idx,
                            const Line &raw, const Encoded &enc,
                            McTrace &trace);
    void growSlotInPlace(PageNum page, MetadataEntry &m, LineIdx idx,
                         const Encoded &enc, McTrace &trace);
    void inflateToUncompressed(PageNum page, MetadataEntry &m,
                               McTrace &trace,
                               AttribComp comp =
                                   AttribComp::kOverflowRelayout);
    void repackPage(PageNum page, McTrace &trace);
    void updateFreeSpace(MetadataEntry &m, const PageShadow &sh);
    /** Track a writeback's actual bin (underflows feed the predictor)
     *  and refresh the page's free space. */
    void noteActualBin(PageNum page, MetadataEntry &m, PageShadow &sh,
                       LineIdx idx, unsigned bin);

    // --- predictor wrappers (flip detection for the event trace) ---
    void predictorPageOverflow(PageNum page);
    void predictorPageShrink(PageNum page);

    CompressoConfig cfg_;
    const SizeBins *bins_;
    std::unique_ptr<Compressor> codec_;
    PageOverflowPredictor predictor_;
    OffsetCircuit offsets_;

    std::unordered_map<PageNum, PageShadow> shadow_;

    // Cached hot-path counter handles (stable across reset()).
    uint64_t &st_split_wb_lines_ = stats_.stat("split_wb_lines");
    uint64_t &st_line_underflows_ = stats_.stat("line_underflows");
    uint64_t &st_co_fetched_lines_ = stats_.stat("co_fetched_lines");
    uint64_t &st_free_slot_growths_ = stats_.stat("free_slot_growths");
    uint64_t &st_free_page_grows_ = stats_.stat("free_page_grows");
    uint64_t &st_overflow_move_ops_ = stats_.stat("overflow_move_ops");
    uint64_t &st_ir_placements_ = stats_.stat("ir_placements");
    uint64_t &st_predictor_inflations_ = stats_.stat("predictor_inflations");
    uint64_t &st_dyn_ir_expansions_ = stats_.stat("dyn_ir_expansions");
    uint64_t &st_page_overflows_ = stats_.stat("page_overflows");
    uint64_t &st_repacks_ = stats_.stat("repacks");
    uint64_t &st_repack_read_ops_ = stats_.stat("repack_read_ops");
    uint64_t &st_repack_write_ops_ = stats_.stat("repack_write_ops");
    uint64_t &st_repacks_throttled_ = stats_.stat("repacks_throttled");
    uint64_t &st_inflations_throttled_ =
        stats_.stat("inflations_throttled");
    uint64_t &st_overflow_escalations_ =
        stats_.stat("overflow_escalations");

    Histogram *h_page_alloc_ = nullptr;   ///< page allocation (occupancy)
    Histogram *h_page_free_ = nullptr;    ///< page free space
    Histogram *h_repack_cost_ = nullptr;  ///< 64 B ops per repack
};

} // namespace compresso

#endif // COMPRESSO_CORE_COMPRESSO_CONTROLLER_H
