/**
 * @file
 * The persistent, fingerprint-keyed tuning store: autotune results
 * survive the process, so repeated and batch runs warm-start from
 * the stored best (strategy, tiles, tier) instead of re-enumerating
 * the candidate ladder (the warm-start-over-re-search idea of
 * Acharya & Bondhugula's fast-permutation work).
 *
 * The on-disk format is one JSON object (schema version 2):
 *
 *   {"version": 2, "model": {"cCompute": ..., "cMem": ...,
 *      "cTraffic": ..., "cTile": ..., "samples": 40,
 *      "crc": "<16 hex digits>"}, "entries": [
 *     {"fp": "<32 hex digits>", "strategy": "ours",
 *      "tiles": [64, 128], "tier": "bytecode",
 *      "modeledMs": 1.234, "evaluated": 49,
 *      "kind": "shape", "crc": "<16 hex digits>"}, ...]}
 *
 * Version 2 adds two optional pieces on top of version 1, both with
 * backward-compatible load (a version-1 file reads cleanly):
 *
 *   - "model": the calibrated cost-model fit (perfmodel/model.hh)
 *     behind guided search, carrying its own checksum; a corrupt
 *     fit is dropped (back to the built-in calibration) without
 *     touching the entries.
 *   - per-entry "kind": "exact" (the default, omitted on disk, so
 *     exact records keep their version-1 checksum) or "shape" --
 *     the extent-blind near-miss records keyed by
 *     ir::mixProgramShape that seed guided candidate order.
 *
 * Each record carries its own checksum (FNV-1a over a canonical
 * serialization of the record, pres/row_hash.hh mixing; numbers are
 * stored at exactly the precision it covers). A store is long-lived
 * mutable state on disk, so load() assumes bit rot happens: it parses
 * each record alone, found by its `{"fp"` header, so records whose
 * checksum fails -- byte flips, hand edits, truncated tails -- are
 * dropped with a warning while every intact record is salvaged, and
 * the next save() rewrites a clean file. Only a wrong/missing version
 * (a foreign file, not our damage) rejects the whole store.
 *
 * Keys are pres::Fingerprint::hex() spellings of whatever the caller
 * fingerprinted -- autotuneTileSizes keys on the program structure
 * plus the search configuration (see tuningKey), so a changed
 * program, candidate ladder, dimension count or objective re-tunes
 * instead of reusing a stale answer. The fingerprint version tag
 * (driver-side) plus the file's "version" field guard against
 * format/semantics drift; load() rejects unknown versions.
 *
 * Writes are atomic (temp file + rename) and the in-memory map is
 * mutex-guarded, so one TuneDb can be shared by concurrent tuning
 * jobs; last-put-wins on the same key. Entries are saved in sorted
 * key order, so two stores holding the same facts are byte-identical
 * files.
 */

#ifndef POLYFUSE_PERFMODEL_TUNE_DB_HH
#define POLYFUSE_PERFMODEL_TUNE_DB_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "perfmodel/model.hh"
#include "pres/fingerprint.hh"

namespace polyfuse {
namespace perfmodel {

/** The stored best configuration for one tuning key. */
struct TuneEntry
{
    std::string strategy = "ours";
    std::vector<int64_t> tiles;
    std::string tier = "bytecode";
    double modeledMs = 0;
    unsigned evaluated = 0;
    /** "exact" (full tuningKey) or "shape" (extent-blind near-miss
     *  key). Omitted on disk for "exact", keeping version-1 records
     *  checksum-compatible. */
    std::string kind = "exact";
};

/** A fingerprint-keyed map of TuneEntry, persisted as JSON. */
class TuneDb
{
  public:
    /** Binds to @p path and load()s it when the file exists (a
     *  missing file is an empty store, not an error). */
    explicit TuneDb(std::string path);

    const std::string &path() const { return path_; }

    /**
     * (Re-)read the store from disk, replacing the in-memory map.
     * Damage-tolerant: records failing their per-record checksum
     * are dropped (counted in lastLoadDropped()) and the rest are
     * salvaged. @return true only for a fully clean load; false
     * after any salvage or damage between records, or -- with an
     * empty map -- for foreign files (wrong/missing version).
     */
    bool load();

    /** Records dropped by the most recent load(): corrupt ones, and
     *  one per '{' in the record list that opens no record header. */
    size_t lastLoadDropped() const;

    /** Write the store atomically (temp + rename). @return false
     *  when the file cannot be written. */
    bool save() const;

    /** Look up @p fp. @return false (out untouched) when absent. */
    bool find(const pres::Fingerprint &fp, TuneEntry *out) const;

    /** Insert or overwrite the entry for @p fp (in memory; call
     *  save() to persist). */
    void put(const pres::Fingerprint &fp, const TuneEntry &entry);

    size_t size() const;

    /** The stored cost-model calibration. @return false (out
     *  untouched) when the store carries none. */
    bool modelFit(ModelFit *out) const;

    /** Set the calibration (in memory; call save() to persist). */
    void setModelFit(const ModelFit &fit);

  private:
    mutable std::mutex mu_;
    std::string path_;
    /** Keyed by Fingerprint::hex(): sorted, so save() is stable. */
    std::map<std::string, TuneEntry> entries_;
    ModelFit fit_;
    bool hasFit_ = false;
    size_t lastLoadDropped_ = 0;
};

/** The per-record checksum save() stores under "crc" (exposed for
 *  tests that fabricate corrupt stores). kind == "exact" records
 *  hash exactly as version 1 did, so legacy stores verify. */
uint64_t recordChecksum(const std::string &fp_hex,
                        const TuneEntry &entry);

/** The checksum of the "model" section (exposed for tests). */
uint64_t modelChecksum(const ModelFit &fit);

/** @p crc as the 16-hex-digit spelling used on disk. */
std::string checksumHex(uint64_t crc);

} // namespace perfmodel
} // namespace polyfuse

#endif // POLYFUSE_PERFMODEL_TUNE_DB_HH
