// Reader/writer for the TEXMEX .fvecs format of the public SIFT/GIST/Deep
// benchmark datasets, so real base and query vectors can replace the
// synthetic generators without code changes. Ground truth is always
// computed (data/ground_truth.h), so no .ivecs reader exists.
#pragma once

#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace rpq::io {

/// Reads an .fvecs file: each record is int32 dim followed by dim floats.
/// max_records == 0 reads everything. A record whose dim differs from the
/// first record's is an IOError.
Result<Dataset> ReadFvecs(const std::string& path, size_t max_records = 0);

/// Writes a dataset as .fvecs.
Status WriteFvecs(const std::string& path, const Dataset& data);

}  // namespace rpq::io
