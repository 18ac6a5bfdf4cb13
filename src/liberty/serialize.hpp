/**
 * @file
 * Compact Liberty-style text serialization of cell libraries.
 *
 * A plain-text format in the spirit of Liberty (one library block,
 * cell/arc/table sub-blocks) that round-trips every field this
 * framework uses. Benches and examples use it to cache the organic
 * library, so the transistor-level characterization runs once per
 * machine instead of once per binary.
 *
 * A cached file starts with a `provenance <key>` line naming the
 * inputs that built it (Characterizer::provenance, mcProvenance). A
 * load for other inputs, or of a file without the line, rebuilds, so
 * a stale library never feeds a figure. writeLibrary's bytes depend
 * on the library alone.
 */

#ifndef OTFT_LIBERTY_SERIALIZE_HPP
#define OTFT_LIBERTY_SERIALIZE_HPP

#include <iosfwd>
#include <optional>
#include <string>

#include "liberty/library.hpp"

namespace otft::liberty {

/** Write a library to a stream in the text format. */
void writeLibrary(std::ostream &os, const CellLibrary &library);

/**
 * Write a library to a file: the `provenance` line (a key without
 * whitespace), then writeLibrary's bytes. Fatal on I/O failure.
 */
void saveLibrary(const std::string &path, const CellLibrary &library,
                 const std::string &provenance);

/**
 * Parse a library from a stream; fatal on malformed input, including
 * table dimensions beyond any real grid. A leading provenance line is
 * returned through `provenance` ("" when absent).
 */
CellLibrary readLibrary(std::istream &is,
                        std::string *provenance = nullptr);

/** Load a library from a file; fatal on I/O or parse failure. */
CellLibrary loadLibrary(const std::string &path);

/**
 * Load if the file exists, parses, and carries `provenance`; nullopt
 * otherwise (with a warning when a file exists but is corrupt, stale,
 * or unstamped).
 */
std::optional<CellLibrary> tryLoadLibrary(const std::string &path,
                                          const std::string &provenance);

/**
 * Load the library from `path` if it was built from `provenance`;
 * otherwise build it with the supplied builder, save it to `path`
 * under that key, and return it.
 */
template <typename Builder>
CellLibrary
loadOrBuild(const std::string &path, const std::string &provenance,
            Builder &&builder)
{
    if (std::optional<CellLibrary> cached =
            tryLoadLibrary(path, provenance))
        return std::move(*cached);
    CellLibrary library = builder();
    saveLibrary(path, library, provenance);
    return library;
}

} // namespace otft::liberty

#endif // OTFT_LIBERTY_SERIALIZE_HPP
