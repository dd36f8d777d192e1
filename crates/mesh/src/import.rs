//! What the Gmsh and MEDIT importers share: one byte scanner over the file,
//! the flat element lists it fills, and the step from parsed vertices,
//! volume elements and tagged boundary elements to a [`Mesh`] — and the
//! one error either importer returns.

use crate::geometry::{polygon_signed_area, Point};
use crate::mesh::{BoundaryRegion, Cells, Mesh, MeshError};
use std::collections::HashMap;
use std::fmt;

/// Why a Gmsh or MEDIT file was not imported.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// The text is not a document of its format: what the reader found.
    Malformed(String),
    /// The file's volume elements are no finite-volume mesh. Cell numbers
    /// count the volume elements in file order, from 0.
    Mesh(MeshError),
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Malformed(s) => write!(f, "malformed mesh file: {s}"),
            ImportError::Mesh(e) => {
                write!(
                    f,
                    "{e}; cells are the volume elements in file order, from 0"
                )
            }
        }
    }
}

impl std::error::Error for ImportError {}

/// An [`ImportError::Malformed`] saying `msg`.
pub(crate) fn malformed(msg: impl Into<String>) -> ImportError {
    ImportError::Malformed(msg.into())
}

/// A cursor over the bytes of a mesh file. A token is a run of bytes
/// between ASCII whitespace, and a line ends at `\n`.
pub(crate) struct Scanner<'a> {
    text: &'a str,
    /// The cursor's byte offset.
    pub at: usize,
    /// Do tokens run across lines, and does a `#` open a comment that runs
    /// to the end of its line (MEDIT)? Else a token is looked for on the
    /// current line only (Gmsh).
    free: bool,
}

/// The most decimal digits that always fit a `usize`.
const SAFE_DIGITS: usize = usize::MAX.ilog10() as usize;

impl<'a> Scanner<'a> {
    pub fn new(text: &'a str, free: bool) -> Self {
        Scanner { text, at: 0, free }
    }

    /// The rest of the current line, trimmed; the cursor moves to the
    /// next. `None` at the end of the text.
    pub fn line(&mut self) -> Option<&'a str> {
        let rest = self.text.get(self.at..).filter(|r| !r.is_empty())?;
        let len = rest.bytes().position(|b| b == b'\n');
        self.at += len.map_or(rest.len(), |n| n + 1);
        Some(rest[..len.unwrap_or(rest.len())].trim())
    }

    /// The next token; `None` where there is none (at the end of the line
    /// for Gmsh, where the cursor stays; at the end of the text for MEDIT).
    pub fn token(&mut self) -> Option<&'a str> {
        self.blank();
        let start = self.at;
        self.skip(|b| !b.is_ascii_whitespace());
        (self.at > start).then(|| &self.text[start..self.at])
    }

    /// The next token as an unsigned decimal, read as `usize::from_str`
    /// reads one; `Err` with the token (`""` if there is none) if it is
    /// not one. Digits are read in place; a token they do not make up on
    /// their own goes through `str::parse`.
    pub fn unsigned(&mut self) -> Result<usize, &'a str> {
        self.blank();
        let rest = &self.text.as_bytes()[self.at..];
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        let ends = rest.get(digits).is_none_or(u8::is_ascii_whitespace);
        if (1..=SAFE_DIGITS).contains(&digits) && ends {
            self.at += digits;
            let digit = |d: &u8| usize::from(d - b'0');
            return Ok(rest[..digits].iter().fold(0, |n, d| 10 * n + digit(d)));
        }
        let token = self.token().unwrap_or("");
        token.parse().map_err(|_| token)
    }

    /// Move to the next token: past blanks, and for MEDIT past line ends
    /// and comments.
    fn blank(&mut self) {
        let free = self.free;
        loop {
            self.skip(|b| b.is_ascii_whitespace() && (free || b != b'\n'));
            if !free || self.text.as_bytes().get(self.at) != Some(&b'#') {
                return;
            }
            self.skip(|b| b != b'\n');
        }
    }

    /// Move past the bytes `pass` lets through.
    fn skip(&mut self, pass: impl Fn(u8) -> bool) {
        let bytes = self.text.as_bytes();
        while self.at < bytes.len() && pass(bytes[self.at]) {
            self.at += 1;
        }
    }
}

/// Elements of one kind in file order: their vertex ids as one flat list,
/// and each one's tag (a Gmsh physical group, a MEDIT reference).
#[derive(Default)]
pub(crate) struct Elements {
    pub cells: Cells,
    pub tags: Vec<i64>,
}

impl Elements {
    /// End the element whose vertex ids were pushed onto `cells.ids` since
    /// the last one.
    pub fn end(&mut self, tag: i64) {
        self.cells.end_cell();
        self.tags.push(tag);
    }
}

/// A face's vertex set as a fixed-width key: at most four ids, sorted and
/// padded with `u32::MAX`, so a mesh face and a boundary element of the
/// file around the same vertices give the same key whatever their order.
/// `None` for more than four ids (no face has them) or an id past `u32`.
fn face_key(ids: impl ExactSizeIterator<Item = usize>) -> Option<[u32; 4]> {
    let mut key = [u32::MAX; 4];
    if ids.len() > key.len() {
        return None;
    }
    for (k, v) in key.iter_mut().zip(ids) {
        *k = u32::try_from(v).ok()?;
    }
    key.sort_unstable();
    Some(key)
}

/// Build the mesh of a parsed file. Neither format guarantees
/// counter-clockwise 2-D elements, so clockwise ones are reversed first.
/// Each boundary element, list by list, then puts the boundary face
/// around its vertices into the region of its tag — regions number in
/// first-use order and are named by `region_name` — and an element around
/// no boundary face is skipped.
pub(crate) fn mesh_from_elements<'a>(
    dim: usize,
    vertices: Vec<Point>,
    mut cells: Cells,
    boundary: impl IntoIterator<Item = &'a Elements>,
    region_name: impl Fn(i64) -> String,
) -> Result<Mesh, MeshError> {
    if dim == 2 {
        let mut polygon: Vec<Point> = Vec::new();
        for w in cells.offsets.windows(2) {
            let cell = &mut cells.ids[w[0]..w[1]];
            polygon.clear();
            polygon.extend(cell.iter().map(|&v| vertices[v]));
            if polygon_signed_area(&polygon) < 0.0 {
                cell.reverse();
            }
        }
    }
    let mut mesh = Mesh::try_from_cells(dim, vertices, cells)?;

    // Boundary faces by key, sorted: a lookup is a binary search.
    let mut by_key: Vec<([u32; 4], usize)> = (mesh.faces.iter().enumerate())
        .filter(|(_, f)| f.is_boundary())
        .filter_map(|(fid, f)| Some((face_key(f.vertices())?, fid)))
        .collect();
    by_key.sort_unstable();
    let mut region_of_tag: HashMap<i64, usize> = HashMap::new();
    let elements = boundary
        .into_iter()
        .flat_map(|e| e.tags.iter().zip(e.cells.iter()));
    for (&tag, ids) in elements {
        let Some(key) = face_key(ids.iter().copied()) else {
            continue;
        };
        let Ok(at) = by_key.binary_search_by_key(&key, |&(k, _)| k) else {
            continue;
        };
        let fid = by_key[at].1;
        let region = *region_of_tag.entry(tag).or_insert_with(|| {
            mesh.boundary_regions.push(BoundaryRegion {
                name: region_name(tag),
                faces: Vec::new(),
            });
            mesh.boundary_regions.len() - 1
        });
        mesh.faces[fid].region = Some(region);
        mesh.boundary_regions[region].faces.push(fid);
    }
    Ok(mesh)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_reads_what_usize_from_str_reads() {
        for token in [
            "0",
            "7",
            "+12",
            "0042",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999999",
            "+",
            "-1",
            "1e3",
            "1.0",
            "12a",
            "٣",
        ] {
            let read = Scanner::new(token, true).unsigned();
            assert_eq!(read.ok(), token.parse::<usize>().ok(), "{token:?}");
            assert!(read.is_ok() || read == Err(token), "{token:?}");
        }
        assert_eq!(Scanner::new(" ", true).unsigned(), Err(""));
    }

    #[test]
    fn tokens_lines_and_comments() {
        let mut s = Scanner::new("  a\tb \r\n\n# not a comment\n1 2\n", false);
        assert_eq!(
            (s.token(), s.token(), s.token()),
            (Some("a"), Some("b"), None)
        );
        assert_eq!((s.line(), s.line()), (Some(""), Some("")));
        assert_eq!((s.token(), s.line()), (Some("#"), Some("not a comment")));
        assert_eq!(
            (s.unsigned(), s.unsigned(), s.unsigned()),
            (Ok(1), Ok(2), Err(""))
        );
        assert_eq!((s.line(), s.line()), (Some(""), None));
        let mut s = Scanner::new("c #d e\n#\n 12 f", true);
        assert_eq!(
            (s.token(), s.unsigned(), s.unsigned()),
            (Some("c"), Ok(12), Err("f"))
        );
        assert_eq!(s.token(), None);
    }
}
