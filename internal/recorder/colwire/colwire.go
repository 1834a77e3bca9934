// Package colwire defines the columnar trace format (SEMFSCOL1) on the
// wire: its magics, frame kinds, column order, limits and checksum. The
// writer in package recorder and the decoder in package colfmt both take
// these from here, so the format is decided in one place.
//
// Stream layout, one file per rank:
//
//	header:  magic "SEMFSCOL1" (9 bytes)
//	         uvarint rank
//	         uvarint declared record count   (exact salvage accounting)
//	blocks:  data blocks, then one dictionary block, each framed as
//	         u8 kind | u32le payload length | u32le CRC-32C | payload
//	trailer: u64le dictionary-block offset | u64le record count |
//	         end magic "SEMFSCE1"
//
// Data block payload (KindData), holding up to BlockRecords records by
// default:
//
//	uvarint count                       records in this block
//	uvarint new                         dictionary entries first used here
//	new × (uvarint len | bytes)         incremental dictionary delta
//	Segments column segments, each prefixed with its uvarint byte length:
//	  layers   count × u8
//	  funcs    count × uvarint
//	  tstarts  first uvarint absolute, rest varint delta from predecessor
//	  durs     count × uvarint          (TEnd − TStart)
//	  paths    count × uvarint          (0 = none, k ≥ 1 = dict[k−1])
//	  paths2   count × uvarint
//	  nargs    count × uvarint
//	  args     Σ nargs × varint
//
// Dictionary block payload (KindDict): uvarint count + count × (uvarint
// len | bytes), in first-use order. The dictionary therefore exists twice:
// the footer copy is the fast path (one read, each string interned once,
// any block decodable immediately), and the per-block deltas are the
// salvage path — a torn tail that takes the footer with it still decodes
// every intact data block by replaying the deltas in order. Every frame
// carries its own length and CRC-32C, so a torn or corrupt tail salvages
// per-block instead of per-stream: the valid block prefix is always
// recoverable.
package colwire

import "hash/crc32"

// Magic opens a columnar rank stream; EndMagic closes an intact one, so
// its absence marks a torn tail.
const (
	Magic    = "SEMFSCOL1"
	EndMagic = "SEMFSCE1"
)

// Frame kinds.
const (
	KindData = 1
	KindDict = 2
)

// BlockRecords is the writer's default record count per data block.
const BlockRecords = 4096

// Wire limits: the bounds a forged header or frame is checked against.
const (
	MaxRank     = 1 << 20
	MaxRecords  = 1 << 30
	MaxPayload  = 1 << 28
	MaxString   = 1 << 20
	FrameHdrLen = 1 + 4 + 4 // kind + length + crc
	TrailerLen  = 8 + 8 + len(EndMagic)
)

// Column indices into a data block's segments, in wire order; Segments
// counts them.
const (
	ColLayers = iota
	ColFuncs
	ColTStarts
	ColDurs
	ColPaths
	ColPaths2
	ColNArgs
	ColArgs
	Segments
)

// Castagnoli is the CRC-32C table every frame checksum uses — the same
// polynomial the WAL's frames use.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)
