"""Training-data-pipeline operators over Ray Data: dedup, embedding
clustering, text analysis, corpus mixing/shuffling/splitting. These are the scale-path
operations a 100 TB corpus needs beyond the reference's own surface (driver
mandate)."""
