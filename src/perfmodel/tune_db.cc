#include "perfmodel/tune_db.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "pres/row_hash.hh"
#include "support/json.hh"
#include "support/logging.hh"

namespace polyfuse {
namespace perfmodel {

namespace {

/** The spelling of @p ms the checksum covers (6 decimals); save()
 *  stores modeledMs at exactly this precision (see stored()). */
std::string
canonicalMs(double ms)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", ms);
    return std::string(buf);
}

/** Canonical spelling of a model coefficient (%.9g keeps tiny
 *  weights alive where %.6f would round them to zero). */
std::string
canonicalCoeff(double c)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", c);
    return std::string(buf);
}

/** The value @p canonical spells: save() stores each number at the
 *  precision its checksum covers, so no digit on disk is unguarded. */
double
stored(const std::string &canonical)
{
    return std::strtod(canonical.c_str(), nullptr);
}

/** @p v as an integer in [@p lo, @p hi]. */
bool
asInt(const json::Value &v, double lo, double hi, int64_t *out)
{
    if (!v.isNumber() || v.number != std::trunc(v.number) ||
        v.number < lo || v.number > hi)
        return false;
    *out = int64_t(v.number);
    return true;
}

/** Skip whitespace, then consume @p c. */
bool
consume(const std::string &text, size_t *pos, char c)
{
    size_t at = text.find_first_not_of(" \t\n\r", *pos);
    if (at == std::string::npos || text[at] != c)
        return false;
    *pos = at + 1;
    return true;
}

/** Consume `@p open "name":` -- the start of a member. */
bool
member(const std::string &text, size_t *pos, char open,
       const char *name)
{
    size_t at = *pos;
    json::Value key;
    if (!consume(text, &at, open) || !json::parseAt(text, &at, &key) ||
        key.string != name || !consume(text, &at, ':'))
        return false;
    *pos = at;
    return true;
}

/** Offset of the first record header at or after @p from: a '{'
 *  whose first key is "fp" (save() always writes it first). */
size_t
nextRecord(const std::string &text, size_t from)
{
    for (size_t at = text.find('{', from); at != std::string::npos;
         at = text.find('{', at + 1)) {
        size_t key = text.find_first_not_of(" \t\n\r", at + 1);
        if (key != std::string::npos &&
            text.compare(key, 4, "\"fp\"") == 0)
            return at;
    }
    return std::string::npos;
}

/**
 * The entry in record @p v and its key, when every member is one
 * save() writes, with its type, and the checksum verifies. Anything
 * else is damage: the store is ours to write, so refusing beats
 * guessing.
 */
bool
decodeEntry(const json::Value &v, std::string *fp_hex,
            TuneEntry *entry)
{
    if (!v.isObject())
        return false;
    std::string crc;
    for (const auto &[key, f] : v.object) {
        int64_t n;
        if (key == "fp" || key == "strategy" || key == "tier" ||
            key == "kind" || key == "crc") {
            if (!f.isString())
                return false;
            (key == "fp"         ? *fp_hex
             : key == "strategy" ? entry->strategy
             : key == "tier"     ? entry->tier
             : key == "kind"     ? entry->kind
                                 : crc) = f.string;
        } else if (key == "tiles") {
            if (!f.isArray())
                return false;
            entry->tiles.clear();
            for (const auto &t : f.array) {
                if (!asInt(t, -json::kMaxExactInt, json::kMaxExactInt, &n))
                    return false;
                entry->tiles.push_back(n);
            }
        } else if (key == "modeledMs") {
            if (!f.isNumber())
                return false;
            entry->modeledMs = f.number;
        } else if (key == "evaluated") {
            if (!asInt(f, 0, UINT32_MAX, &n))
                return false;
            entry->evaluated = unsigned(n);
        } else {
            return false;
        }
    }
    pres::Fingerprint fp;
    return pres::parseFingerprint(*fp_hex, &fp) &&
           crc == checksumHex(recordChecksum(*fp_hex, *entry));
}

/** The calibration in model section @p v, under decodeEntry's
 *  rules. */
bool
decodeModel(const json::Value &v, ModelFit *fit)
{
    if (!v.isObject())
        return false;
    std::string crc;
    for (const auto &[key, f] : v.object) {
        int64_t n;
        if (key == "cCompute" || key == "cMem" || key == "cTraffic" ||
            key == "cTile") {
            if (!f.isNumber())
                return false;
            (key == "cCompute" ? fit->cCompute
             : key == "cMem"   ? fit->cMem
             : key == "cTraffic" ? fit->cTraffic
                                 : fit->cTile) = f.number;
        } else if (key == "samples") {
            if (!asInt(f, 0, json::kMaxExactInt, &n))
                return false;
            fit->samples = uint64_t(n);
        } else if (key == "crc") {
            if (!f.isString())
                return false;
            crc = f.string;
        } else {
            return false;
        }
    }
    return crc == checksumHex(modelChecksum(*fit));
}

} // namespace

uint64_t
recordChecksum(const std::string &fp_hex, const TuneEntry &entry)
{
    uint64_t h = pres::kFnvOffset;
    auto mixStr = [&h](const std::string &s) {
        h = pres::fnvMix(h, uint64_t(s.size()));
        for (char c : s) {
            h ^= uint8_t(c);
            h *= pres::kFnvPrime;
        }
    };
    mixStr(fp_hex);
    mixStr(entry.strategy);
    mixStr(entry.tier);
    h = pres::fnvMix(h, uint64_t(entry.tiles.size()));
    for (int64_t t : entry.tiles)
        h = pres::fnvMix(h, uint64_t(t));
    mixStr(canonicalMs(entry.modeledMs));
    h = pres::fnvMix(h, entry.evaluated);
    // "exact" records hash exactly as schema version 1 did (the
    // field did not exist), so legacy stores keep verifying.
    if (entry.kind != "exact")
        mixStr(entry.kind);
    return pres::hashFinalize(h);
}

uint64_t
modelChecksum(const ModelFit &fit)
{
    uint64_t h = pres::kFnvOffset;
    auto mixStr = [&h](const std::string &s) {
        h = pres::fnvMix(h, uint64_t(s.size()));
        for (char c : s) {
            h ^= uint8_t(c);
            h *= pres::kFnvPrime;
        }
    };
    mixStr(canonicalCoeff(fit.cCompute));
    mixStr(canonicalCoeff(fit.cMem));
    mixStr(canonicalCoeff(fit.cTraffic));
    mixStr(canonicalCoeff(fit.cTile));
    h = pres::fnvMix(h, fit.samples);
    return pres::hashFinalize(h);
}

std::string
checksumHex(uint64_t crc)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)crc);
    return std::string(buf);
}

TuneDb::TuneDb(std::string path) : path_(std::move(path))
{
    load();
}

bool
TuneDb::load()
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    fit_ = ModelFit();
    hasFit_ = false;
    lastLoadDropped_ = 0;
    std::ifstream in(path_);
    if (!in.is_open())
        return true; // missing file: an empty store
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    // The header must spell `{"version": 1` or `{"version": 2`
    // before anything else (save() always writes it first). A wrong
    // or missing version is a foreign file, not bit rot: refuse it
    // wholesale rather than salvaging records whose semantics we
    // cannot vouch for. Version 1 is the pre-model schema -- same
    // record format, no "model" section, no "kind" field -- and
    // loads cleanly.
    size_t pos = 0;
    json::Value version;
    if (!member(text, &pos, '{', "version") ||
        !json::parseAt(text, &pos, &version) ||
        (version.number != 1 && version.number != 2)) {
        warn("tune db " + path_ +
             ": not a version-1/2 polyfuse store; starting empty");
        return false;
    }

    // From here on the file is ours, so damage means truncation or
    // bit rot. The optional calibration section comes first; a
    // damaged fit is dropped on its own (guided search falls back to
    // the built-in calibration) without touching the records.
    bool model_dropped = false;
    size_t at = pos;
    if (member(text, &at, ',', "model")) {
        json::Value model;
        hasFit_ = json::parseAt(text, &at, &model) &&
                  decodeModel(model, &fit_);
        model_dropped = !hasFit_;
        if (hasFit_)
            pos = at;
    }

    // The records. Each is found by its header and parsed on its
    // own, so damage inside one record can neither hide nor swallow
    // an intact neighbour. Between two records there should be a
    // bare separator; a '{' there opened a record whose header was
    // damaged, and counts as one dropped record.
    bool intact = !model_dropped &&
                  member(text, &pos, ',', "entries") &&
                  consume(text, &pos, '[');
    if (!intact)
        pos = nextRecord(text, pos);
    bool first = true;
    while (pos != std::string::npos) {
        size_t header = nextRecord(text, pos);
        std::string gap;
        for (size_t i = pos; i < std::min(header, text.size()); ++i) {
            lastLoadDropped_ += text[i] == '{';
            if (!std::isspace((unsigned char)text[i]))
                gap += text[i];
        }
        intact = intact &&
                 gap == (header == std::string::npos ? "]}"
                         : first                     ? ""
                                                     : ",");
        if (header == std::string::npos)
            break;
        first = false;
        size_t end = header;
        json::Value record;
        std::string hex;
        TuneEntry entry;
        if (json::parseAt(text, &end, &record) &&
            decodeEntry(record, &hex, &entry)) {
            entries_[hex] = std::move(entry);
            pos = end;
        } else {
            ++lastLoadDropped_;
            pos = header + 1;
        }
    }

    if (intact && lastLoadDropped_ == 0)
        return true;
    warn("tune db " + path_ + ": dropped " +
         std::to_string(lastLoadDropped_) +
         " corrupt record(s)" +
         (model_dropped ? " and the model calibration" : "") +
         ", kept " + std::to_string(entries_.size()) +
         "; next save() rewrites a clean store");
    return false;
}

bool
TuneDb::save() const
{
    std::lock_guard<std::mutex> lock(mu_);
    json::Value doc;
    doc.set("version", 2);
    if (hasFit_) {
        json::Value model;
        model.set("cCompute", stored(canonicalCoeff(fit_.cCompute)));
        model.set("cMem", stored(canonicalCoeff(fit_.cMem)));
        model.set("cTraffic", stored(canonicalCoeff(fit_.cTraffic)));
        model.set("cTile", stored(canonicalCoeff(fit_.cTile)));
        model.set("samples", fit_.samples);
        model.set("crc", checksumHex(modelChecksum(fit_)));
        doc.set("model", std::move(model));
    }
    json::Value records(json::Value::Kind::Array);
    for (const auto &[hex, e] : entries_) {
        json::Value r;
        r.set("fp", hex);
        r.set("strategy", e.strategy);
        r.set("tiles", e.tiles);
        r.set("tier", e.tier);
        r.set("modeledMs", stored(canonicalMs(e.modeledMs)));
        r.set("evaluated", e.evaluated);
        // Omitted for "exact": those records (and their checksums)
        // stay byte-compatible with schema version 1.
        if (e.kind != "exact")
            r.set("kind", e.kind);
        r.set("crc", checksumHex(recordChecksum(hex, e)));
        records.push(std::move(r));
    }
    doc.set("entries", std::move(records));

    std::string tmp = path_ + ".tmp";
    {
        std::ofstream f(tmp, std::ios::trunc);
        if (!f.is_open())
            return false;
        f << json::dump(doc) << '\n';
        if (!f.good())
            return false;
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
TuneDb::find(const pres::Fingerprint &fp, TuneEntry *out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(fp.hex());
    if (it == entries_.end())
        return false;
    *out = it->second;
    return true;
}

void
TuneDb::put(const pres::Fingerprint &fp, const TuneEntry &entry)
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_[fp.hex()] = entry;
}

size_t
TuneDb::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

size_t
TuneDb::lastLoadDropped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lastLoadDropped_;
}

bool
TuneDb::modelFit(ModelFit *out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!hasFit_)
        return false;
    *out = fit_;
    return true;
}

void
TuneDb::setModelFit(const ModelFit &fit)
{
    std::lock_guard<std::mutex> lock(mu_);
    fit_ = fit;
    hasFit_ = true;
}

} // namespace perfmodel
} // namespace polyfuse
