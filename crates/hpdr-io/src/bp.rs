//! BP5-like self-describing parallel file format (ADIOS2 substrate).
//!
//! Layout mirrors ADIOS2's BP5 on-disk structure: one metadata index
//! (`md.idx`) plus `data.<k>` subfiles, one per aggregator. Writers
//! append variable blocks (raw or reduced payloads) to their aggregator's
//! subfile; the index records `(step, variable, block) → (subfile,
//! offset, length, codec)`.
//!
//! This is the *real* I/O path: files are actually written and read, and
//! the integration tests round-trip reduced data through it. The
//! cluster-scale experiments use the virtual filesystem model instead
//! (`fsmodel`), since nobody has 62 TB of laptop.

use hpdr_core::{ArrayMeta, ByteReader, ByteWriter, FrameHeader, HpdrError, Result};
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const FRAME: FrameHeader = FrameHeader::new(0x4250_3500 /* "BP5" */, 1, "BP index");

/// Fewest bytes the index spends on a step (its variable count), a
/// variable (an empty name and a block count) and a block (writer,
/// subfile, offset, length, an empty codec name, dtype and rank), so
/// that no count claims more entries than the index has bytes for.
const STEP_BYTES: usize = 4;
const VAR_BYTES: usize = 4 + 4;
const BLOCK_BYTES: usize = 4 + 4 + 8 + 8 + 4 + 1 + 1;

/// One variable block as recorded in the metadata index.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockInfo {
    pub writer: u32,
    pub subfile: u32,
    pub offset: u64,
    pub len: u64,
    /// Codec that produced the payload ("raw" for uncompressed).
    pub codec: String,
    pub meta: ArrayMeta,
}

#[derive(Debug, Clone, PartialEq, Default)]
struct StepIndex {
    /// (variable name, blocks)
    vars: Vec<(String, Vec<BlockInfo>)>,
}

/// Writer handle for a BP-like dataset directory.
pub struct BpWriter {
    dir: PathBuf,
    subfiles: Vec<fs::File>,
    offsets: Vec<u64>,
    steps: Vec<StepIndex>,
    current: Option<StepIndex>,
    next_writer: u32,
}

impl BpWriter {
    /// Create a dataset with `aggregators` data subfiles.
    pub fn create(dir: impl AsRef<Path>, aggregators: usize) -> Result<BpWriter> {
        let dir = dir.as_ref().to_path_buf();
        if aggregators == 0 {
            return Err(HpdrError::invalid("need at least one aggregator"));
        }
        fs::create_dir_all(&dir)?;
        let mut subfiles = Vec::with_capacity(aggregators);
        for k in 0..aggregators {
            subfiles.push(fs::File::create(dir.join(format!("data.{k}")))?);
        }
        Ok(BpWriter {
            dir,
            offsets: vec![0; aggregators],
            subfiles,
            steps: Vec::new(),
            current: None,
            next_writer: 0,
        })
    }

    pub fn begin_step(&mut self) {
        if self.current.is_none() {
            self.current = Some(StepIndex::default());
        }
    }

    /// Append one block of `var` for the next writer rank (round-robin
    /// aggregation).
    pub fn put(&mut self, var: &str, meta: &ArrayMeta, payload: &[u8], codec: &str) -> Result<()> {
        let step = self
            .current
            .as_mut()
            .ok_or_else(|| HpdrError::invalid("put() outside begin_step/end_step"))?;
        let writer = self.next_writer;
        self.next_writer += 1;
        let subfile = (writer as usize) % self.subfiles.len();
        let offset = self.offsets[subfile];
        self.subfiles[subfile].write_all(payload)?;
        self.offsets[subfile] += payload.len() as u64;
        let info = BlockInfo {
            writer,
            subfile: subfile as u32,
            offset,
            len: payload.len() as u64,
            codec: codec.to_string(),
            meta: meta.clone(),
        };
        match step.vars.iter_mut().find(|(n, _)| n == var) {
            Some((_, blocks)) => blocks.push(info),
            None => step.vars.push((var.to_string(), vec![info])),
        }
        Ok(())
    }

    pub fn end_step(&mut self) -> Result<()> {
        let step = self
            .current
            .take()
            .ok_or_else(|| HpdrError::invalid("end_step without begin_step"))?;
        self.steps.push(step);
        self.next_writer = 0;
        Ok(())
    }

    /// Flush subfiles and write the metadata index.
    pub fn close(mut self) -> Result<()> {
        if self.current.is_some() {
            self.end_step()?;
        }
        for f in &mut self.subfiles {
            f.flush()?;
        }
        let mut w = ByteWriter::new();
        FRAME.write(&mut w);
        w.put_u32(self.subfiles.len() as u32);
        w.put_u32(self.steps.len() as u32);
        for step in &self.steps {
            w.put_u32(step.vars.len() as u32);
            for (name, blocks) in &step.vars {
                w.put_str(name);
                w.put_u32(blocks.len() as u32);
                for b in blocks {
                    w.put_u32(b.writer);
                    w.put_u32(b.subfile);
                    w.put_u64(b.offset);
                    w.put_u64(b.len);
                    w.put_str(&b.codec);
                    b.meta.write(&mut w);
                }
            }
        }
        fs::write(self.dir.join("md.idx"), w.as_slice())?;
        Ok(())
    }
}

/// Reader handle for a BP-like dataset directory.
pub struct BpReader {
    dir: PathBuf,
    steps: Vec<StepIndex>,
}

impl BpReader {
    pub fn open(dir: impl AsRef<Path>) -> Result<BpReader> {
        let dir = dir.as_ref().to_path_buf();
        let idx = fs::read(dir.join("md.idx"))?;
        let mut r = ByteReader::new(&idx);
        FRAME.read(&mut r)?;
        let _subfiles = r.get_u32()?;
        let n_steps = r.get_count_u32(STEP_BYTES)?;
        let mut steps = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            let n_vars = r.get_count_u32(VAR_BYTES)?;
            let mut vars = Vec::with_capacity(n_vars);
            for _ in 0..n_vars {
                let name = r.get_str()?;
                let n_blocks = r.get_count_u32(BLOCK_BYTES)?;
                let mut blocks = Vec::with_capacity(n_blocks);
                for _ in 0..n_blocks {
                    let writer = r.get_u32()?;
                    let subfile = r.get_u32()?;
                    let offset = r.get_u64()?;
                    let len = r.get_u64()?;
                    let codec = r.get_str()?;
                    blocks.push(BlockInfo {
                        writer,
                        subfile,
                        offset,
                        len,
                        codec,
                        meta: ArrayMeta::read(&mut r)?,
                    });
                }
                vars.push((name, blocks));
            }
            steps.push(StepIndex { vars });
        }
        r.expect_exhausted()?;
        Ok(BpReader { dir, steps })
    }

    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    pub fn variables(&self, step: usize) -> Vec<&str> {
        self.steps[step]
            .vars
            .iter()
            .map(|(n, _)| n.as_str())
            .collect()
    }

    pub fn blocks(&self, step: usize, var: &str) -> Result<&[BlockInfo]> {
        self.steps
            .get(step)
            .and_then(|s| s.vars.iter().find(|(n, _)| n == var))
            .map(|(_, b)| b.as_slice())
            .ok_or_else(|| HpdrError::invalid(format!("no variable '{var}' in step {step}")))
    }

    /// Read one block's payload from its subfile. The block must lie
    /// inside the subfile, so the read allocates no more than the file
    /// holds.
    pub fn read_block(&self, info: &BlockInfo) -> Result<Vec<u8>> {
        let mut f = fs::File::open(self.dir.join(format!("data.{}", info.subfile)))?;
        let size = f.metadata()?.len();
        if !matches!(info.offset.checked_add(info.len), Some(end) if end <= size) {
            return Err(HpdrError::corrupt(format!(
                "block at {} of {} bytes exceeds subfile {} of {size} bytes",
                info.offset, info.len, info.subfile
            )));
        }
        f.seek(SeekFrom::Start(info.offset))?;
        let mut buf = vec![0u8; info.len as usize];
        f.read_exact(&mut buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{DType, Shape};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hpdr-bp-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta(n: usize) -> ArrayMeta {
        ArrayMeta::new(DType::F32, Shape::new(&[n]))
    }

    #[test]
    fn write_read_roundtrip_multi_step_multi_writer() {
        let dir = tmpdir("roundtrip");
        let mut w = BpWriter::create(&dir, 2).unwrap();
        for step in 0..3u8 {
            w.begin_step();
            for rank in 0..5u8 {
                let payload = vec![step * 16 + rank; 64 + rank as usize];
                w.put("density", &meta(16), &payload, "mgard-x").unwrap();
            }
            w.put("psl", &meta(8), &[7; 32], "raw").unwrap();
            w.end_step().unwrap();
        }
        w.close().unwrap();

        let r = BpReader::open(&dir).unwrap();
        assert_eq!(r.num_steps(), 3);
        assert_eq!(r.variables(1), vec!["density", "psl"]);
        let blocks = r.blocks(2, "density").unwrap();
        assert_eq!(blocks.len(), 5);
        for (rank, b) in blocks.iter().enumerate() {
            assert_eq!(b.writer as usize, rank);
            let payload = r.read_block(b).unwrap();
            assert_eq!(payload.len(), 64 + rank);
            assert!(payload.iter().all(|&x| x == 2 * 16 + rank as u8));
        }
        assert_eq!(r.blocks(0, "psl").unwrap()[0].codec, "raw");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn blocks_spread_across_aggregators() {
        let dir = tmpdir("agg");
        let mut w = BpWriter::create(&dir, 3).unwrap();
        w.begin_step();
        for _ in 0..6 {
            w.put("v", &meta(4), &[1, 2, 3], "raw").unwrap();
        }
        w.close().unwrap();
        let r = BpReader::open(&dir).unwrap();
        let blocks = r.blocks(0, "v").unwrap();
        let mut per: [u32; 3] = [0; 3];
        for b in blocks {
            per[b.subfile as usize] += 1;
        }
        assert_eq!(per, [2, 2, 2]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_variable_and_corrupt_index() {
        let dir = tmpdir("err");
        let mut w = BpWriter::create(&dir, 1).unwrap();
        w.begin_step();
        w.put("v", &meta(4), &[0; 16], "raw").unwrap();
        w.close().unwrap();
        let r = BpReader::open(&dir).unwrap();
        assert!(r.blocks(0, "nope").is_err());
        // Corrupt the index: reader must error, not panic.
        let idx = dir.join("md.idx");
        let mut bytes = fs::read(&idx).unwrap();
        bytes.truncate(bytes.len() / 2);
        fs::write(&idx, &bytes).unwrap();
        assert!(BpReader::open(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn block_past_its_subfile_is_an_error() {
        let dir = tmpdir("past");
        let mut w = BpWriter::create(&dir, 1).unwrap();
        w.begin_step();
        w.put("v", &meta(4), &[1; 16], "raw").unwrap();
        w.close().unwrap();
        let r = BpReader::open(&dir).unwrap();
        let good = r.blocks(0, "v").unwrap()[0].clone();
        assert_eq!(r.read_block(&good).unwrap(), vec![1; 16]);
        for (offset, len) in [(1, 16), (0, 17), (u64::MAX, 2), (0, u64::MAX)] {
            let bad = BlockInfo {
                offset,
                len,
                ..good.clone()
            };
            assert!(r.read_block(&bad).is_err(), "offset {offset} len {len}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_outside_step_is_error() {
        let dir = tmpdir("outside");
        let mut w = BpWriter::create(&dir, 1).unwrap();
        assert!(w.put("v", &meta(1), &[1], "raw").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_aggregators_rejected() {
        assert!(BpWriter::create(tmpdir("zero"), 0).is_err());
    }
}
