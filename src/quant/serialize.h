// Binary (de)serialization for quantizer models and code arrays, so trained
// RPQ/OPQ/PQ models can be shipped separately from the data they compress —
// what a production deployment does (train offline on a GPU box, serve the
// frozen model on memory-constrained searchers).
//
// Model format "RPQQ" (little-endian), one of two versions:
//   magic "RPQQ" | u32 version | u32 dim | u32 M | u32 K | u8 has_rotation
//   version 3 (plain): | codebook floats (M*K*(dim/M))
//                      | rotation floats (dim*dim, iff has_rotation)
//   version 4 (split, quant/split.h; K = 256, no rotation): | u8 has_split
//                      | level codebooks A then B (M*16*(dim/M) floats each;
//                        the product codebook and cross table are rebuilt)
//   | u32 CRC32 over every preceding byte, then end of file.
// Codes format "RPQC": magic | u64 n | u32 code_size | u8 codes[n*code_size]
//   | u32 CRC32 trailer, then end of file.
// Save writes through io::AtomicFile (temp + rename). Load reads exactly
// these layouts and checks the trailer every time: anything else is an
// IOError.
#pragma once

#include <string>

#include "common/status.h"
#include "quant/pq.h"

namespace rpq::quant {

/// Persists a (rotation +) PQ model. RPQ deploys as PqQuantizer, so this
/// covers PQ, OPQ and trained RPQ alike.
Status SaveQuantizer(const PqQuantizer& quantizer, const std::string& path);

/// Loads a model written by SaveQuantizer.
Result<std::unique_ptr<PqQuantizer>> LoadQuantizer(const std::string& path);

/// Persists a code array (n x code_size bytes) with its shape.
Status SaveCodes(const std::vector<uint8_t>& codes, size_t code_size,
                 const std::string& path);

/// Loads codes; returns the flat byte vector and writes the code size.
Result<std::vector<uint8_t>> LoadCodes(const std::string& path,
                                       size_t* code_size);

}  // namespace rpq::quant
